package harness

import (
	"fmt"
	"strings"

	"repro/internal/flitsim"
	"repro/internal/hier"
	"repro/internal/model"
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
// the synthesized composite face identical physics. The flat half (design
// and replay) and the two-level half (composite, mesh-of-meshes and both
// replays) are independent tasks on the Workers pool. Each row is emitted
// as a harness.chiplet_row event.
func (c Config) Chiplet(benchmark string, procs, clusters int) ([]ChipletRow, error) {
	sp := obs.Span(c.Obs, "harness.chiplet")
	defer sp.End()
	pat, err := c.generate(benchmark, procs)
	if err != nil {
		return nil, fmt.Errorf("chiplet %s/%d: %v", benchmark, procs, err)
	}
	halves := [...]func() cellTask[ChipletRow]{
		func() cellTask[ChipletRow] {
			flat, err := c.designFor(benchmark, procs, pat)
			if err != nil {
				return cellTask[ChipletRow]{buildErr: fmt.Errorf("flat: %v", err)}
			}
			res, err := c.simulateGenerated(pat, flat)
			if err != nil {
				return cellTask[ChipletRow]{replayErr: fmt.Errorf("on flat: %v", err)}
			}
			net := flat.Result.Net
			return cellTask[ChipletRow]{rows: []ChipletRow{chipletRow(res, net.NumSwitches(), net.TotalLinks(), flat.Result.ContentionFree)}}
		},
		func() cellTask[ChipletRow] {
			two, err := c.twoLevel(pat, clusters)
			if err != nil {
				return cellTask[ChipletRow]{buildErr: fmt.Errorf("two-level: %v", err)}
			}
			mom, err := hier.MeshOfMeshes(pat, two.Assign, two.GatewayWidth, two.NoILinkDelay)
			if err != nil {
				return cellTask[ChipletRow]{buildErr: fmt.Errorf("mesh-of-meshes: %v", err)}
			}
			var t cellTask[ChipletRow]
			for _, org := range []struct {
				topo string
				d    *hier.Design
				free bool
			}{{"mesh-of-meshes", mom, false}, {"two-level", two, two.ContentionFree()}} {
				res, _, err := hier.Simulate(org.d, pat, c.simConfig())
				if err != nil {
					return cellTask[ChipletRow]{replayErr: fmt.Errorf("on %s: %v", org.topo, err)}
				}
				t.rows = append(t.rows, chipletRow(res, org.d.TotalSwitches(), org.d.TotalLinks(), org.free))
			}
			return t
		},
	}
	rows, err := runCellTasks(c.Workers, -1, len(halves), func(i int) cellTask[ChipletRow] { return halves[i]() })
	if err != nil {
		return nil, fmt.Errorf("chiplet %s/%d: %v", benchmark, procs, err)
	}
	topos := ChipletTopologies()
	for i := range rows {
		r := &rows[i]
		r.Topology = topos[i]
		r.Benchmark = benchmark
		r.Procs = procs
		r.Clusters = clusters
		r.ExecNorm, r.CommNorm = normalize(r.ExecCycles, r.CommCycles, rows[0].ExecCycles, rows[0].CommCycles)
		obs.Emit(c.Obs, "harness.chiplet_row",
			fmt.Sprintf("%s/%d k=%d %s exec=%d comm=%.0f lat=%.2f sw=%d links=%d cf=%t",
				r.Benchmark, r.Procs, r.Clusters, r.Topology, r.ExecCycles, r.CommCycles,
				r.MeanLatency, r.Switches, r.Links, r.ContentionFree))
	}
	return rows, nil
}

// chipletRow is one organization's simulated and resource columns; Chiplet
// labels it and normalizes it to the flat row.
func chipletRow(res flitsim.Result, switches, links int, free bool) ChipletRow {
	return ChipletRow{
		ExecCycles:     res.ExecCycles,
		CommCycles:     res.CommCycles,
		MeanLatency:    res.MeanLatency,
		Kills:          res.Kills,
		Switches:       switches,
		Links:          links,
		ContentionFree: free,
	}
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
