package hier

import (
	"context"
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

// checkLinks rejects a negative gateway width or NoI link delay; zero selects
// the default (Normalized).
func checkLinks(gatewayWidth, noiLinkDelay int) error {
	if gatewayWidth < 0 || noiLinkDelay < 0 {
		return fmt.Errorf("hier: negative GatewayWidth %d or NoILinkDelay %d", gatewayWidth, noiLinkDelay)
	}
	return nil
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
// the NoI level (nil when the assignment has a single cluster). Levels is
// the one walk over both.
type Design struct {
	Name         string
	Procs        int
	Assign       *Assignment
	GatewayWidth int
	NoILinkDelay int
	Chiplets     []*Level
	NoI          *Level
}

// Levels returns the design's levels in order: chiplet 0 … k−1, then the
// NoI when there is one (more than one cluster). No entry is nil, and
// appending to the result never writes into Chiplets.
func (d *Design) Levels() []*Level { return levels(d.Chiplets, d.NoI) }

// levels is the Levels order shared by designs and splits.
func levels[T any](chiplets []*T, noi *T) []*T {
	n := len(chiplets)
	if noi == nil {
		return chiplets[:n:n]
	}
	return append(chiplets[:n:n], noi)
}

// levelName names level i of a composite with k chiplets in errors and
// reports: "chiplet i", or "noi" for the level past the last chiplet.
func levelName(i, k int) string {
	if i < k {
		return fmt.Sprintf("chiplet %d", i)
	}
	return "noi"
}

// ContentionFree reports whether every synthesized level satisfies
// Theorem 1 for its sub-pattern (false when any level is a baseline
// without a synthesis result).
func (d *Design) ContentionFree() bool {
	return d.everyLevel(func(r *synth.Result) bool { return r.ContentionFree })
}

// ConstraintsMet reports whether every synthesized level met its own design
// constraints — the chiplets the NoC budgets, the NoI the NoI's (false when
// any level is a baseline without a synthesis result).
func (d *Design) ConstraintsMet() bool {
	return d.everyLevel(func(r *synth.Result) bool { return r.ConstraintsMet })
}

// ExactColoring reports whether every level's pipe widths are certified
// minimal by a clique (false when any level is a baseline without a
// synthesis result).
func (d *Design) ExactColoring() bool {
	return d.everyLevel(func(r *synth.Result) bool { return r.ExactColoring })
}

// everyLevel reports whether every level has a synthesis result passing ok.
func (d *Design) everyLevel(ok func(*synth.Result) bool) bool {
	for _, lv := range d.Levels() {
		if lv.Result == nil || !ok(lv.Result) {
			return false
		}
	}
	return true
}

// TotalSwitches sums switch counts across all levels.
func (d *Design) TotalSwitches() int {
	total := 0
	for _, lv := range d.Levels() {
		total += lv.Net.NumSwitches()
	}
	return total
}

// TotalLinks sums link counts across all levels plus the gateway pipes,
// which exist only alongside a NoI.
func (d *Design) TotalLinks() int {
	total := 0
	for _, lv := range d.Levels() {
		total += lv.Net.TotalLinks()
	}
	if d.NoI != nil {
		for _, gws := range d.Assign.Gateways {
			total += len(gws) * d.GatewayWidth
		}
	}
	return total
}

// Synthesize is SynthesizeContext without cancellation.
func Synthesize(p *model.Pattern, opt Options) (*Design, error) {
	return SynthesizeContext(context.Background(), p, opt)
}

// SynthesizeContext partitions the pattern, splits its flows, and runs the
// single-level synthesizer once per chiplet and once for the NoI under the
// per-level budgets. The result is deterministic for fixed options and any
// worker counts, level by level, because each level inherits synth's
// worker-invariance. Every level runs under ctx (synth.SynthesizeCliques
// polls it), so a cancelled or expired ctx aborts the level in progress and
// the returned error wraps ctx's.
func SynthesizeContext(ctx context.Context, p *model.Pattern, opt Options) (*Design, error) {
	if p == nil {
		return nil, fmt.Errorf("hier: Synthesize needs a pattern")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("hier: %v", err)
	}
	if err := checkLinks(opt.GatewayWidth, opt.NoILinkDelay); err != nil {
		return nil, err
	}
	opt = opt.Normalized()
	sp := obs.Span(opt.Obs, "hier.synthesize")
	defer sp.End()
	assign, err := Partition(p, opt.Spec, opt.MaxGateways)
	if err != nil {
		return nil, err
	}
	d, split, err := compose(p.Name, p, assign, opt,
		func(sub *model.Pattern, lopt synth.Options) (*Level, error) {
			res, err := synth.SynthesizeCliques(ctx, sub, model.MaxCliqueSet(sub), lopt)
			if err != nil {
				return nil, err
			}
			return &Level{Pattern: sub, Net: res.Net, Table: res.Table, Result: res}, nil
		})
	if err != nil {
		return nil, err
	}
	obs.Emit(opt.Obs, "hier.synthesized",
		fmt.Sprintf("%s clusters=%d noi_procs=%d inter_msgs=%d cf=%t switches=%d links=%d",
			p.Name, len(assign.Clusters), assign.NoIProcs, split.InterMessages,
			d.ContentionFree(), d.TotalSwitches(), d.TotalLinks()))
	return d, nil
}

// compose splits p under assign and builds the composite named name one
// level at a time, in Levels order, with build and the level's options
// (opt.NoC for a chiplet, opt.NoI for the NoI). Synthesize and MeshOfMeshes
// differ only in build.
func compose(name string, p *model.Pattern, assign *Assignment, opt Options,
	build func(sub *model.Pattern, lopt synth.Options) (*Level, error)) (*Design, *Split, error) {
	split, err := SplitPattern(p, assign)
	if err != nil {
		return nil, nil, err
	}
	d := &Design{
		Name:         name,
		Procs:        p.Procs,
		Assign:       assign,
		GatewayWidth: opt.GatewayWidth,
		NoILinkDelay: opt.NoILinkDelay,
	}
	k := len(split.Chiplets)
	for i, sub := range split.Levels() {
		lopt := opt.NoC
		if i == k {
			lopt = opt.NoI
		}
		lv, err := build(sub, lopt)
		if err != nil {
			return nil, nil, fmt.Errorf("hier: %s: %w", levelName(i, k), err)
		}
		d.addLevel(lv, i == k)
	}
	return d, split, nil
}

// addLevel files lv as the next chiplet, or as the NoI.
func (d *Design) addLevel(lv *Level, noi bool) {
	if noi {
		d.NoI = lv
	} else {
		d.Chiplets = append(d.Chiplets, lv)
	}
}

// checkLevels holds the levels to the assignment: one chiplet per cluster,
// serving the cluster's members, and a NoI serving the gateway endpoints
// whenever there are any.
func (d *Design) checkLevels() error {
	a := d.Assign
	if len(d.Chiplets) != len(a.Clusters) {
		return fmt.Errorf("hier: design has %d chiplet levels for %d clusters", len(d.Chiplets), len(a.Clusters))
	}
	if d.NoI == nil && a.NoIProcs > 0 {
		return fmt.Errorf("hier: assignment has %d gateways but design has no NoI level", a.NoIProcs)
	}
	for i, lv := range d.Levels() {
		want := a.NoIProcs
		if i < len(a.Clusters) {
			want = len(a.Clusters[i])
		}
		if lv.Net.Procs != want {
			return fmt.Errorf("hier: %s net has %d procs, its level serves %d", levelName(i, len(a.Clusters)), lv.Net.Procs, want)
		}
	}
	return nil
}
