package harness

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/collective"
	"repro/internal/flitsim"
	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
)

// ChipletRow is one bar of the chiplet experiment: one organization of a
// benchmark — the flat synthesized network, the regular mesh-of-meshes
// two-level baseline, or the synthesized two-level composite — with its
// end-to-end simulation results and resource usage. ExecNorm/CommNorm are
// normalized to the flat design (the first row).
type ChipletRow struct {
	Benchmark string
	Procs     int
	Clusters  int
	Topology  string

	ExecCycles int64
	CommCycles float64
	ExecNorm   float64
	CommNorm   float64

	MeanLatency    float64
	Switches       int
	Links          int
	ContentionFree bool
	Kills          int
}

// ChipletTopologies lists the experiment's bars: the flat single-level
// synthesis (the normalization baseline, first), the regular two-level
// mesh-of-meshes, and the synthesized two-level composite.
func ChipletTopologies() []string { return []string{"flat", "mesh-of-meshes", "two-level"} }

// twoLevel synthesizes the pattern's two-level composite on the partition
// the experiment uses — the deterministic flow-graph agglomeration at the
// requested cluster count — with the harness knobs at both levels.
func (c Config) twoLevel(pat *model.Pattern, clusters int) (*hier.Design, error) {
	return hier.Synthesize(pat, hier.Options{
		Spec: &hier.Spec{Mode: hier.ModeFlow, K: clusters},
		NoC:  c.synthOptions(),
		NoI:  c.synthOptions(),
		Obs:  c.Obs,
	})
}

// Chiplet runs the two-level comparison for one benchmark (NAS or
// collective registry) at one cluster count: synthesize the flat network
// and the two-level composite, build the mesh-of-meshes baseline on the
// same clustering, and simulate the original pattern end-to-end on all
// three. The flat design runs with its floorplanned link delays; both
// two-level organizations run with unit intra-chiplet delays and the
// composite's NoI link delay on inter-chiplet links, so the baseline and
// the synthesized composite face identical physics. Each row is emitted as
// a harness.chiplet_row event.
func (c Config) Chiplet(benchmark string, procs, clusters int) ([]ChipletRow, error) {
	sp := obs.Span(c.Obs, "harness.chiplet")
	defer sp.End()
	pat, err := c.chipletPattern(benchmark, procs)
	if err != nil {
		return nil, fmt.Errorf("chiplet %s/%d: %v", benchmark, procs, err)
	}
	flat, err := c.designFor(benchmark, procs, pat)
	if err != nil {
		return nil, fmt.Errorf("chiplet %s/%d: flat: %v", benchmark, procs, err)
	}
	two, err := c.twoLevel(pat, clusters)
	if err != nil {
		return nil, fmt.Errorf("chiplet %s/%d: two-level: %v", benchmark, procs, err)
	}
	mom, err := hier.MeshOfMeshes(pat, two.Assign, two.GatewayWidth, two.NoILinkDelay)
	if err != nil {
		return nil, fmt.Errorf("chiplet %s/%d: mesh-of-meshes: %v", benchmark, procs, err)
	}

	var rows []ChipletRow
	var baseExec int64
	var baseComm float64
	for _, topo := range ChipletTopologies() {
		var res flitsim.Result
		var row ChipletRow
		switch topo {
		case "flat":
			res, err = c.simulateGenerated(pat, flat)
			row.Switches = flat.Result.Net.NumSwitches()
			row.Links = flat.Result.Net.TotalLinks()
			row.ContentionFree = flat.Result.ContentionFree
		case "mesh-of-meshes":
			res, _, err = hier.Simulate(mom, pat, c.simConfig())
			row.Switches = mom.TotalSwitches()
			row.Links = mom.TotalLinks()
		case "two-level":
			res, _, err = hier.Simulate(two, pat, c.simConfig())
			row.Switches = two.TotalSwitches()
			row.Links = two.TotalLinks()
			row.ContentionFree = two.ContentionFree()
		}
		if err != nil {
			return nil, fmt.Errorf("chiplet %s/%d: on %s: %v", benchmark, procs, topo, err)
		}
		row.Benchmark = benchmark
		row.Procs = procs
		row.Clusters = clusters
		row.Topology = topo
		row.ExecCycles = res.ExecCycles
		row.CommCycles = res.CommCycles
		row.MeanLatency = res.MeanLatency
		row.Kills = res.Kills
		if topo == "flat" {
			baseExec = res.ExecCycles
			baseComm = res.CommCycles
		}
		if baseExec > 0 {
			row.ExecNorm = float64(res.ExecCycles) / float64(baseExec)
		}
		if baseComm > 0 {
			row.CommNorm = res.CommCycles / baseComm
		}
		rows = append(rows, row)
	}
	for _, r := range rows {
		obs.Emit(c.Obs, "harness.chiplet_row",
			fmt.Sprintf("%s/%d k=%d %s exec=%d comm=%.0f lat=%.2f sw=%d links=%d cf=%t",
				r.Benchmark, r.Procs, r.Clusters, r.Topology, r.ExecCycles, r.CommCycles,
				r.MeanLatency, r.Switches, r.Links, r.ContentionFree))
	}
	return rows, nil
}

// BuildChipletDesign synthesizes just the two-level composite for a
// benchmark — the entry the invariant suite drives.
func (c Config) BuildChipletDesign(benchmark string, procs, clusters int) (*hier.Design, error) {
	pat, err := c.chipletPattern(benchmark, procs)
	if err != nil {
		return nil, fmt.Errorf("chiplet %s/%d: %v", benchmark, procs, err)
	}
	return c.twoLevel(pat, clusters)
}

// chipletPattern resolves a benchmark name against the NAS registry first,
// then the collectives — the same resolution order the design server uses.
func (c Config) chipletPattern(benchmark string, procs int) (*model.Pattern, error) {
	pat, err := nas.Generate(benchmark, procs, c.nasConfig())
	if err == nil {
		return pat, nil
	}
	var ube *nas.UnknownBenchmarkError
	if !errors.As(err, &ube) {
		return nil, err
	}
	return collective.Generate(benchmark, procs, c.collectiveConfig())
}

// RenderChipletTable formats chiplet rows as a text table.
func RenderChipletTable(title string, rows []ChipletRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s %5s %3s %-15s | %10s %10s | %9s %9s | %8s %4s %6s %3s\n",
		"bench", "procs", "k", "organization", "exec.cyc", "comm.cyc", "exec/flat", "comm/flat", "lat.mean", "sw", "links", "cf")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %5d %3d %-15s | %10d %10.0f | %9.3f %9.3f | %8.1f %4d %6d %3t\n",
			r.Benchmark, r.Procs, r.Clusters, r.Topology, r.ExecCycles, r.CommCycles,
			r.ExecNorm, r.CommNorm, r.MeanLatency, r.Switches, r.Links, r.ContentionFree)
	}
	return b.String()
}
