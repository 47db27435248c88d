package harness

import (
	"fmt"
	"strings"

	"repro/internal/flitsim"
	"repro/internal/parallel"
)

// PerfRow is one bar of Figure 8: execution and communication time of one
// topology on one benchmark, normalized to the non-blocking crossbar.
type PerfRow struct {
	Benchmark string
	Procs     int
	Topology  string

	ExecCycles int64
	CommCycles float64
	ExecNorm   float64
	CommNorm   float64

	MeanLatency float64
	Kills       int
	EnergyUnits float64
}

// Topologies lists the Figure 8 bars in the paper's order.
func Topologies() []string { return []string{"crossbar", "mesh", "torus", "generated"} }

// Figure8 reproduces one panel of Figure 8: total execution time and
// communication time of crossbar, mesh, torus, and the generated network,
// normalized to the crossbar, for each benchmark. size is "small" (8/9
// nodes, Figure 8(a)) or "large" (16 nodes, Figure 8(b)).
//
// Each benchmark cell (one design plus four simulations) runs on the
// Workers pool; the four replays within a cell stay sequential because cells,
// not replays, are the fan-out unit (normalizing to the crossbar is
// arithmetic on finished results, not a reason to order the runs).
func (c Config) Figure8(size string) ([]PerfRow, error) {
	names := benchmarkNames()
	cells, err := parallel.MapObserved(c.Obs, "harness.fig8", c.Workers, len(names), func(i int) ([]PerfRow, error) {
		name := names[i]
		small, large := paperProcs(name)
		procs := small
		if size == "large" {
			procs = large
		}
		return c.Figure8For(name, procs)
	})
	if err != nil {
		return nil, err
	}
	var rows []PerfRow
	for _, cell := range cells {
		rows = append(rows, cell...)
	}
	return rows, nil
}

// Figure8For runs the four-topology comparison for a single benchmark.
func (c Config) Figure8For(name string, procs int) ([]PerfRow, error) {
	d, err := c.BuildDesign(name, procs)
	if err != nil {
		return nil, fmt.Errorf("figure8 %s/%d: %v", name, procs, err)
	}
	rows, err := c.compareTopologies(d, Topologies())
	if err != nil {
		return nil, fmt.Errorf("figure8 %s/%d: %v", name, procs, err)
	}
	return rows, nil
}

// compareTopologies simulates the design's pattern on each topology in
// order, normalizing execution and communication time to the crossbar (the
// list's crossbar entry must precede the rows normalized against it).
func (c Config) compareTopologies(d *Design, topos []string) ([]PerfRow, error) {
	var rows []PerfRow
	var baseExec int64
	var baseComm float64
	for _, topo := range topos {
		var res flitsim.Result
		var err error
		if topo == "generated" {
			res, err = c.simulateGenerated(d.Pattern, d)
		} else {
			res, err = c.simulateBaseline(d.Pattern, topo)
		}
		if err != nil {
			return nil, fmt.Errorf("on %s: %v", topo, err)
		}
		row := PerfRow{
			Benchmark:   d.Benchmark,
			Procs:       d.Procs,
			Topology:    topo,
			ExecCycles:  res.ExecCycles,
			CommCycles:  res.CommCycles,
			MeanLatency: res.MeanLatency,
			Kills:       res.Kills,
			EnergyUnits: res.EnergyUnits,
		}
		if topo == "crossbar" {
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
	return rows, nil
}

// RenderPerfTable formats Figure 8 rows as a text table.
func RenderPerfTable(title string, rows []PerfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %5s %-10s | %10s %10s | %9s %9s | %8s %6s %10s\n",
		"bench", "procs", "topology", "exec.cyc", "comm.cyc", "exec/xbar", "comm/xbar", "lat.mean", "kills", "energy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %5d %-10s | %10d %10.0f | %9.3f %9.3f | %8.1f %6d %10.0f\n",
			r.Benchmark, r.Procs, r.Topology, r.ExecCycles, r.CommCycles,
			r.ExecNorm, r.CommNorm, r.MeanLatency, r.Kills, r.EnergyUnits)
	}
	return b.String()
}
