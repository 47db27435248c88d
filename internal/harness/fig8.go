package harness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/flitsim"
	"repro/internal/model"
	"repro/internal/nas"
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
// Each benchmark cell runs on the Workers pool, and inside a cell the
// baseline replays run while the generated network is synthesized (see
// compareTopologies).
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
	pat, err := nas.Generate(name, procs, c.nasConfig())
	if err != nil {
		return nil, fmt.Errorf("figure8 %s/%d: %v", name, procs, err)
	}
	return c.compareTopologies("figure8", name, procs, pat, Topologies())
}

// compareTopologies replays the pattern on each topology, one task per
// entry on the Workers pool, and returns the rows in list order normalized
// to the crossbar. The "generated" entry's task synthesizes and floorplans
// the network (designFor) before replaying on it, so it is dispatched first;
// every baseline needs only the pattern. Errors read
// "<exp> <name>/<procs>: on <topo>: …" (no "on" for the design's).
func (c Config) compareTopologies(exp, name string, procs int, pat *model.Pattern, topos []string) ([]PerfRow, error) {
	rows, err := runCellTasks(c.Workers, slices.Index(topos, "generated"), len(topos), func(i int) cellTask[PerfRow] {
		topo := topos[i]
		var res flitsim.Result
		var err error
		if topo == "generated" {
			d, derr := c.designFor(name, procs, pat)
			if derr != nil {
				return cellTask[PerfRow]{buildErr: derr}
			}
			res, err = c.simulateGenerated(pat, d)
		} else {
			res, err = flitsim.RunBaseline(pat, topo, c.simConfig())
		}
		if err != nil {
			return cellTask[PerfRow]{replayErr: fmt.Errorf("on %s: %v", topo, err)}
		}
		return cellTask[PerfRow]{rows: []PerfRow{{
			Benchmark:   name,
			Procs:       procs,
			Topology:    topo,
			ExecCycles:  res.ExecCycles,
			CommCycles:  res.CommCycles,
			MeanLatency: res.MeanLatency,
			Kills:       res.Kills,
			EnergyUnits: res.EnergyUnits,
		}}}
	})
	if err != nil {
		return nil, fmt.Errorf("%s %s/%d: %v", exp, name, procs, err)
	}
	if k := slices.Index(topos, "crossbar"); k >= 0 {
		base := rows[k]
		for i := range rows {
			rows[i].ExecNorm, rows[i].CommNorm = normalize(rows[i].ExecCycles, rows[i].CommCycles, base.ExecCycles, base.CommCycles)
		}
	}
	return rows, nil
}

// cellTask is what one independent stage of a paper cell hands back: its
// rows in row order, or the error it stopped on — building its design, or
// replaying on it — already labeled for the cell's message.
type cellTask[R any] struct {
	rows      []R
	buildErr  error
	replayErr error
}

// runCellTasks runs a paper cell's n independent stages on the Workers pool
// (first is dispatched ahead of the rest because it is the longest; -1 keeps
// row order) and joins their rows in task order. The error is the one the
// serial pipeline, which built every design before its first replay, would
// have hit first: the first build error in task order, else the first replay
// error.
func runCellTasks[R any](workers, first, n int, task func(i int) cellTask[R]) ([]R, error) {
	order := make([]int, 0, n)
	if first >= 0 {
		order = append(order, first)
	}
	for i := 0; i < n; i++ {
		if i != first {
			order = append(order, i)
		}
	}
	done, _ := parallel.Map(workers, n, func(k int) (cellTask[R], error) {
		return task(order[k]), nil
	})
	tasks := make([]cellTask[R], n)
	for k, t := range done {
		tasks[order[k]] = t
	}
	for _, t := range tasks {
		if t.buildErr != nil {
			return nil, t.buildErr
		}
	}
	var rows []R
	for _, t := range tasks {
		if t.replayErr != nil {
			return nil, t.replayErr
		}
		rows = append(rows, t.rows...)
	}
	return rows, nil
}

// normalize divides a row's execution and communication time by the base
// row's; a zero base leaves the ratio zero.
func normalize(exec int64, comm float64, baseExec int64, baseComm float64) (execNorm, commNorm float64) {
	if baseExec > 0 {
		execNorm = float64(exec) / float64(baseExec)
	}
	if baseComm > 0 {
		commNorm = comm / baseComm
	}
	return execNorm, commNorm
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
