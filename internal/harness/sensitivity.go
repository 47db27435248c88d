package harness

import (
	"fmt"
	"strings"

	"repro/internal/parallel"
)

// SensitivityRow is one cell of the Section 4.2 cross-pattern matrix: one
// benchmark's trace run on the network generated for another benchmark (or
// for itself, on the diagonal), compared to running on its own network.
type SensitivityRow struct {
	Trace   string // benchmark whose trace runs
	Network string // benchmark the network was generated for
	Procs   int

	OwnExec int64 // the trace on its own generated network
	Exec    int64 // the trace on Network's generated network
	// Degradation is Exec/OwnExec - 1, exactly 0 on the diagonal; the paper
	// reports <2% for FFT and ~20% for BT on the CG network at 16 nodes.
	Degradation float64
}

// Sensitivity reproduces the cross-pattern experiment over the full matrix:
// every named benchmark's trace on the network generated for every named
// benchmark. The designs are built in one stage; the len² simulations then
// run as independent cells, each reading two finished designs (designs are
// immutable after synthesis, so concurrent reads are safe). Rows come back
// trace-major, in the order of benchmarks.
func (c Config) Sensitivity(benchmarks []string, procs int) ([]SensitivityRow, error) {
	designs, err := parallel.MapObserved(c.Obs, "harness.sensitivity.design", c.Workers, len(benchmarks), func(i int) (*Design, error) {
		d, err := c.BuildDesign(benchmarks[i], procs)
		if err != nil {
			return nil, fmt.Errorf("sensitivity: %s design: %v", benchmarks[i], err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	n := len(benchmarks)
	execs, err := parallel.MapObserved(c.Obs, "harness.sensitivity.cell", c.Workers, n*n, func(k int) (int64, error) {
		tr, net := designs[k/n], designs[k%n]
		res, err := c.simulateGenerated(tr.Pattern, net)
		if err != nil {
			return 0, fmt.Errorf("sensitivity: %s on %s network: %v", tr.Benchmark, net.Benchmark, err)
		}
		return res.ExecCycles, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SensitivityRow, n*n)
	for k, exec := range execs {
		i := k / n
		own := execs[i*n+i]
		rows[k] = SensitivityRow{
			Trace:       benchmarks[i],
			Network:     benchmarks[k%n],
			Procs:       procs,
			OwnExec:     own,
			Exec:        exec,
			Degradation: float64(exec)/float64(own) - 1,
		}
	}
	return rows, nil
}

// RenderSensitivityTable formats the trace-major rows of Sensitivity as two
// matrices, traces down and networks across: execution cycles (the diagonal
// is each trace's own network), then execution normalized to the diagonal.
func RenderSensitivityTable(rows []SensitivityRow) string {
	if len(rows) == 0 {
		return ""
	}
	n := 1 // networks per trace
	for n < len(rows) && rows[n].Trace == rows[0].Trace {
		n++
	}
	var b strings.Builder
	matrix := func(title string, cell func(SensitivityRow) string) {
		fmt.Fprintf(&b, "%-9s", title)
		for _, r := range rows[:n] {
			fmt.Fprintf(&b, " %9s", r.Network)
		}
		for k, r := range rows {
			if k%n == 0 {
				fmt.Fprintf(&b, "\n%-9s", r.Trace)
			}
			fmt.Fprintf(&b, " %9s", cell(r))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Section 4.2 sensitivity: each trace (row) on each generated network (column), %d procs\n", rows[0].Procs)
	matrix("exec", func(r SensitivityRow) string { return fmt.Sprint(r.Exec) })
	matrix("vs own", func(r SensitivityRow) string { return fmt.Sprintf("%.3f", float64(r.Exec)/float64(r.OwnExec)) })
	return b.String()
}
