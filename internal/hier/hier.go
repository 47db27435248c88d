package hier

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Options configures a two-level synthesis. The per-level budgets are
// independent full synth.Options — chiplet NoCs and the NoI routinely want
// different degree and width limits (narrow on-die routers, wide
// inter-chiplet ports).
type Options struct {
	// Spec selects the clustering (required).
	Spec *Spec
	// MaxGateways caps the automatic per-cluster gateway set (boundary
	// processors); 0 keeps every boundary processor. Capping below the
	// boundary count reintroduces intra-chiplet forwarding legs and can
	// serialize concurrent inter-cluster flows on the shared gateway
	// ports — the per-level ContentionFree results report the damage.
	MaxGateways int
	// GatewayWidth is the link count of each gateway pipe — the bundle
	// joining a gateway's chiplet switch to its NoI switch (default 1).
	GatewayWidth int
	// NoILinkDelay is the simulated pipeline depth, in cycles, of NoI
	// and gateway links; intra-chiplet links stay at 1 (default 2,
	// matching the harness's off-die torus penalty).
	NoILinkDelay int
	// NoC configures every chiplet's synthesis; NoI the inter-chiplet
	// level. Zero values take the usual synth defaults.
	NoC synth.Options
	// NoI holds the inter-chiplet budgets.
	NoI synth.Options
	// Obs receives telemetry from both levels (per-level synth spans
	// plus the hier.* events). A level whose own Obs is set keeps it.
	Obs obs.Observer
}

// NoIOptions returns the inter-chiplet level's synthesis options: the NoI
// inherits the NoC's, and a non-zero degree or processors-per-switch budget
// overrides that one constraint. netgen's -noi-* flags and the server's hier
// block both build Options.NoI here.
func NoIOptions(noc synth.Options, maxDegree, maxProcsPerSwitch int) synth.Options {
	if maxDegree != 0 {
		noc.MaxDegree = maxDegree
	}
	if maxProcsPerSwitch != 0 {
		noc.MaxProcsPerSwitch = maxProcsPerSwitch
	}
	return noc
}

// Normalized resolves defaults.
func (o Options) Normalized() Options {
	if o.GatewayWidth <= 0 {
		o.GatewayWidth = 1
	}
	if o.NoILinkDelay <= 0 {
		o.NoILinkDelay = 2
	}
	if o.NoC.Obs == nil {
		o.NoC.Obs = o.Obs
	}
	if o.NoI.Obs == nil {
		o.NoI.Obs = o.Obs
	}
	return o
}

// Level is one synthesized (or baseline) subnetwork of a composite design:
// a chiplet NoC over cluster-local processor IDs, or the NoI over gateway
// endpoint IDs.
type Level struct {
	// Pattern is the sub-pattern the level was designed for. It is nil
	// on designs read back by LoadDesign — Flatten recomputes the split
	// from the pattern it is given.
	Pattern *model.Pattern
	Net     *topology.Network
	Table   *routing.Table
	// Result is the synthesis outcome (nil for constructed baselines
	// such as MeshOfMeshes).
	Result *synth.Result
}

// Design is a composite two-level interconnect: one Level per chiplet plus
// the NoI level (nil when the assignment has a single cluster).
type Design struct {
	Name         string
	Procs        int
	Assign       *Assignment
	GatewayWidth int
	NoILinkDelay int
	Chiplets     []*Level
	NoI          *Level
}

// ContentionFree reports whether every synthesized level satisfies
// Theorem 1 for its sub-pattern (false when any level is a baseline
// without a synthesis result).
func (d *Design) ContentionFree() bool {
	for _, lv := range d.Chiplets {
		if lv.Result == nil || !lv.Result.ContentionFree {
			return false
		}
	}
	if d.NoI != nil && (d.NoI.Result == nil || !d.NoI.Result.ContentionFree) {
		return false
	}
	return true
}

// ConstraintsMet reports whether every synthesized level met its own design
// constraints — the chiplets the NoC budgets, the NoI the NoI's (false when
// any level is a baseline without a synthesis result).
func (d *Design) ConstraintsMet() bool {
	for _, lv := range d.Chiplets {
		if lv.Result == nil || !lv.Result.ConstraintsMet {
			return false
		}
	}
	return d.NoI == nil || d.NoI.Result != nil && d.NoI.Result.ConstraintsMet
}

// TotalSwitches sums switch counts across all levels.
func (d *Design) TotalSwitches() int {
	total := 0
	for _, lv := range d.Chiplets {
		total += lv.Net.NumSwitches()
	}
	if d.NoI != nil {
		total += d.NoI.Net.NumSwitches()
	}
	return total
}

// TotalLinks sums link counts across all levels plus the gateway pipes.
func (d *Design) TotalLinks() int {
	total := 0
	for _, lv := range d.Chiplets {
		total += lv.Net.TotalLinks()
	}
	if d.NoI != nil {
		total += d.NoI.Net.TotalLinks()
		for _, gws := range d.Assign.Gateways {
			total += len(gws) * d.GatewayWidth
		}
	}
	return total
}

// Synthesize partitions the pattern, splits its flows, and runs the
// single-level synthesizer once per chiplet and once for the NoI under the
// per-level budgets. The result is deterministic for fixed options and any
// worker counts, level by level, because each level inherits synth's
// worker-invariance.
func Synthesize(p *model.Pattern, opt Options) (*Design, error) {
	if p == nil {
		return nil, fmt.Errorf("hier: Synthesize needs a pattern")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("hier: %v", err)
	}
	opt = opt.Normalized()
	sp := obs.Span(opt.Obs, "hier.synthesize")
	defer sp.End()
	assign, err := Partition(p, opt.Spec, opt.MaxGateways)
	if err != nil {
		return nil, err
	}
	split, err := SplitPattern(p, assign)
	if err != nil {
		return nil, err
	}
	d := &Design{
		Name:         p.Name,
		Procs:        p.Procs,
		Assign:       assign,
		GatewayWidth: opt.GatewayWidth,
		NoILinkDelay: opt.NoILinkDelay,
	}
	for c, sub := range split.Chiplets {
		res, err := synth.Synthesize(sub, opt.NoC)
		if err != nil {
			return nil, fmt.Errorf("hier: chiplet %d: %v", c, err)
		}
		d.Chiplets = append(d.Chiplets, &Level{
			Pattern: sub, Net: res.Net, Table: res.Table, Result: res,
		})
	}
	if split.NoI != nil {
		res, err := synth.Synthesize(split.NoI, opt.NoI)
		if err != nil {
			return nil, fmt.Errorf("hier: noi: %v", err)
		}
		d.NoI = &Level{Pattern: split.NoI, Net: res.Net, Table: res.Table, Result: res}
	}
	obs.Emit(opt.Obs, "hier.synthesized",
		fmt.Sprintf("%s clusters=%d noi_procs=%d inter_msgs=%d cf=%t switches=%d links=%d",
			p.Name, len(assign.Clusters), assign.NoIProcs, split.InterMessages,
			d.ContentionFree(), d.TotalSwitches(), d.TotalLinks()))
	return d, nil
}
