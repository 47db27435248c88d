// Package nas generates synthetic communication patterns for the five NAS
// parallel benchmarks the paper evaluates (BT, CG, FFT, MG, SP). The paper
// obtained patterns by MPE-profiling MPICH runs on a PC cluster; that
// substrate is unavailable, so — per the reproduction's substitution rule —
// each generator emits a deterministic phase-parallel trace derived from the
// benchmark's documented communication structure:
//
//   - CG: recursive-halving row reductions plus a large transpose exchange
//     (Section 4: "dominated by reduction and matrix transpose communication
//     in the main loop").
//   - FFT: all-to-all personalized exchange within rows then columns of a
//     2-D process grid ("implemented by a 2-D blocking algorithm").
//   - MG: hypercube neighbor exchange over V-cycle levels, a reduce-to-all,
//     and a binomial broadcast of short messages ("reduction to all nodes and
//     broadcast communication of short messages").
//   - BT/SP: multipartition line sweeps across a √N×√N process grid plus
//     boundary face exchanges ("mostly point-to-point", "based on a similar
//     algorithm"); SP runs more iterations with smaller payloads.
//
// The methodology consumes only (src, dst, start, finish, size) tuples
// grouped into synchronized library calls, so these generators exercise the
// same code paths as real traces. All generators are deterministic.
//
// Package collective provides the ML collective workloads (ring allreduce,
// reduce-scatter, all-gather, tree broadcast) behind the same registry
// shape; the design server resolves workload names against both sets.
package nas

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config tunes a generator. The zero value selects paper-like defaults.
type Config struct {
	// Iterations is the number of main-loop iterations to emit. Zero
	// selects a per-benchmark default chosen so traces stay simulation-
	// sized while repeating every distinct phase several times.
	Iterations int
	// ByteScale multiplies all message sizes. Zero means 1.0.
	ByteScale float64
	// ComputeScale multiplies all compute gaps, controlling the
	// communication-to-computation ratio. Zero means 1.0. The paper notes
	// the ratio is generally higher at 16 nodes; generators model that by
	// scaling per-processor compute with 1/P.
	ComputeScale float64
	// Obs receives telemetry: the nas.* counters describing each
	// generated pattern. Nil disables telemetry at zero cost.
	Obs obs.Observer
}

// Normalized returns the configuration with every zero field replaced by
// its documented default. Iterations stays zero, meaning the generator's
// per-benchmark default.
func (c Config) Normalized() Config {
	if c.ByteScale == 0 {
		c.ByteScale = 1
	}
	if c.ComputeScale == 0 {
		c.ComputeScale = 1
	}
	return c
}

func (c Config) iters(def int) int {
	if c.Iterations > 0 {
		return c.Iterations
	}
	return def
}

func (c Config) bytes(n int) int {
	s := c.ByteScale
	if s == 0 {
		s = 1
	}
	b := int(float64(n) * s)
	if b < 1 {
		b = 1
	}
	return b
}

func (c Config) compute(t float64) float64 {
	s := c.ComputeScale
	if s == 0 {
		s = 1
	}
	return t * s
}

// UnknownBenchmarkError reports a request for a benchmark outside the NAS
// set. Callers that accept untrusted benchmark names (the nocd design
// server, the harness CLIs) detect it with errors.As and surface it as a
// client error instead of an internal failure.
type UnknownBenchmarkError struct {
	Name string
}

func (e *UnknownBenchmarkError) Error() string {
	return fmt.Sprintf("nas: unknown benchmark %q (have %v)", e.Name, Names())
}

// ProcCountError reports a processor count the benchmark's communication
// structure cannot be generated for: CG, FFT, and MG require a power of
// two, BT and SP a perfect square.
type ProcCountError struct {
	Benchmark string
	Procs     int
	// Want describes the accepted shape ("power-of-two", "perfect-square").
	Want string
}

func (e *ProcCountError) Error() string {
	return fmt.Sprintf("nas: %s requires a %s processor count, got %d", e.Benchmark, e.Want, e.Procs)
}

// Generator builds a pattern for a processor count.
type Generator func(procs int, cfg Config) (*model.Pattern, error)

// Generators maps benchmark names to their generators.
var Generators = map[string]Generator{
	"BT":  BT,
	"CG":  CG,
	"FFT": FFT,
	"MG":  MG,
	"SP":  SP,
}

// Names lists the benchmarks in the paper's order.
func Names() []string { return []string{"BT", "CG", "FFT", "MG", "SP"} }

// PaperProcs returns the paper's processor counts for a benchmark: BT and SP
// need a perfect square (9), the others a power of two (8); all use 16 for
// the large configuration.
func PaperProcs(name string) (small, large int) {
	if name == "BT" || name == "SP" {
		return 9, 16
	}
	return 8, 16
}

// Generate builds the named benchmark's pattern, validating it before return.
func Generate(name string, procs int, cfg Config) (*model.Pattern, error) {
	cfg = cfg.Normalized()
	sp := obs.Span(cfg.Obs, "nas.generate")
	defer sp.End()
	gen, ok := Generators[name]
	if !ok {
		return nil, &UnknownBenchmarkError{Name: name}
	}
	p, err := gen(procs, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("nas: %s generator produced invalid pattern: %v", name, err)
	}
	obs.Count(cfg.Obs, "nas.patterns", 1)
	obs.Count(cfg.Obs, "nas.messages", int64(len(p.Messages)))
	obs.Count(cfg.Obs, "nas.phases", int64(len(p.Phases)))
	return p, nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// nearSquareGrid factors n into rows*cols with rows <= cols and the two as
// close as possible.
func nearSquareGrid(n int) (rows, cols int) {
	rows = int(math.Sqrt(float64(n)))
	for rows > 1 && n%rows != 0 {
		rows--
	}
	return rows, n / rows
}

// sortedFlows canonicalizes a flow list for deterministic phase contents.
func sortedFlows(fs []model.Flow) []model.Flow {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Less(fs[j]) })
	return fs
}

// CG generates the Conjugate Gradient pattern: per iteration, log2(cols)
// recursive-halving reductions within each row of the process grid followed
// by a transpose exchange between mirror positions. Requires a power-of-two
// processor count.
func CG(procs int, cfg Config) (*model.Pattern, error) {
	if !isPow2(procs) {
		return nil, &ProcCountError{Benchmark: "CG", Procs: procs, Want: "power-of-two"}
	}
	rows, cols := cgGrid(procs)
	iters := cfg.iters(4)
	var phases []trace.PhaseSpec
	computeGap := cfg.compute(256.0 / float64(procs) * 16)
	for it := 0; it < iters; it++ {
		// Recursive-halving reductions within rows: partner distance
		// doubles each round.
		for dist := 1; dist < cols; dist *= 2 {
			var fs []model.Flow
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					p := r*cols + c
					q := r*cols + (c ^ dist)
					fs = append(fs, model.F(p, q))
				}
			}
			phases = append(phases, trace.PhaseSpec{
				Label: fmt.Sprintf("reduce.d%d", dist),
				Flows: sortedFlows(fs),
				Bytes: cfg.bytes(2048),
			})
		}
		// Transpose exchange between mirror grid positions.
		var fs []model.Flow
		for p := 0; p < procs; p++ {
			q := cgTranspose(p, rows, cols)
			if q != p {
				fs = append(fs, model.F(p, q))
			}
		}
		phases = append(phases, trace.PhaseSpec{
			Label:        "transpose",
			Flows:        sortedFlows(fs),
			Bytes:        cfg.bytes(16384),
			ComputeAfter: computeGap,
		})
	}
	return trace.BuildPhased(fmt.Sprintf("CG.%d", procs), procs, phases), nil
}

// cgGrid returns CG's 2-D layout: square when possible, otherwise cols =
// 2*rows (as in NPB's npcols = 2*nprows case).
func cgGrid(procs int) (rows, cols int) {
	l := log2(procs)
	rows = 1 << (l / 2)
	return rows, procs / rows
}

// cgTranspose gives the transpose partner. On a square grid it swaps row and
// column; on a cols=2*rows grid it mirrors across the doubled dimension.
func cgTranspose(p, rows, cols int) int {
	r, c := p/cols, p%cols
	if rows == cols {
		return c*cols + r
	}
	// Rectangular layout: pair (r, c) with (c mod rows, r + (c/rows)*rows).
	return (c%rows)*cols + (r + (c/rows)*rows)
}

// FFT generates the 3-D FFT pattern under a 2-D blocking decomposition:
// all-to-all personalized exchange within each row of the process grid, then
// within each column. Requires a power-of-two processor count.
func FFT(procs int, cfg Config) (*model.Pattern, error) {
	if !isPow2(procs) {
		return nil, &ProcCountError{Benchmark: "FFT", Procs: procs, Want: "power-of-two"}
	}
	rows, cols := nearSquareGrid(procs)
	iters := cfg.iters(3)
	var phases []trace.PhaseSpec
	computeGap := cfg.compute(512.0 / float64(procs) * 16)
	for it := 0; it < iters; it++ {
		// All-to-all within rows: cols-1 shift permutations.
		for k := 1; k < cols; k++ {
			var fs []model.Flow
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					fs = append(fs, model.F(r*cols+c, r*cols+(c+k)%cols))
				}
			}
			phases = append(phases, trace.PhaseSpec{
				Label: fmt.Sprintf("a2a.row.k%d", k),
				Flows: sortedFlows(fs),
				Bytes: cfg.bytes(8192 / cols),
			})
		}
		// All-to-all within columns: rows-1 shift permutations.
		for k := 1; k < rows; k++ {
			var fs []model.Flow
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					fs = append(fs, model.F(r*cols+c, ((r+k)%rows)*cols+c))
				}
			}
			phases = append(phases, trace.PhaseSpec{
				Label: fmt.Sprintf("a2a.col.k%d", k),
				Flows: sortedFlows(fs),
				Bytes: cfg.bytes(8192 / rows),
			})
		}
		if len(phases) > 0 { // one processor exchanges nothing
			phases[len(phases)-1].ComputeAfter = computeGap
		}
	}
	return trace.BuildPhased(fmt.Sprintf("FFT.%d", procs), procs, phases), nil
}

// MG generates the Multi-Grid pattern: a V-cycle of hypercube neighbor
// exchanges with payloads shrinking at coarser levels, a recursive-doubling
// reduce-to-all, and a binomial-tree broadcast of short messages. Requires a
// power-of-two processor count.
func MG(procs int, cfg Config) (*model.Pattern, error) {
	if !isPow2(procs) {
		return nil, &ProcCountError{Benchmark: "MG", Procs: procs, Want: "power-of-two"}
	}
	levels := log2(procs)
	iters := cfg.iters(3)
	var phases []trace.PhaseSpec
	computeGap := cfg.compute(768.0 / float64(procs) * 16)
	for it := 0; it < iters; it++ {
		// V-cycle: fine-to-coarse then coarse-to-fine neighbor exchange.
		for pass := 0; pass < 2; pass++ {
			for li := 0; li < levels; li++ {
				l := li
				if pass == 1 {
					l = levels - 1 - li
				}
				var fs []model.Flow
				for p := 0; p < procs; p++ {
					fs = append(fs, model.F(p, p^(1<<l)))
				}
				bytes := 128 >> l
				if bytes < 8 {
					bytes = 8
				}
				phases = append(phases, trace.PhaseSpec{
					Label: fmt.Sprintf("vcycle.p%d.l%d", pass, l),
					Flows: sortedFlows(fs),
					Bytes: cfg.bytes(bytes),
				})
			}
		}
		// Reduce-to-all by recursive doubling: short messages.
		for l := 0; l < levels; l++ {
			var fs []model.Flow
			for p := 0; p < procs; p++ {
				fs = append(fs, model.F(p, p^(1<<l)))
			}
			phases = append(phases, trace.PhaseSpec{
				Label: fmt.Sprintf("allreduce.l%d", l),
				Flows: sortedFlows(fs),
				Bytes: cfg.bytes(8),
			})
		}
		// Binomial broadcast from processor 0: short messages.
		for l := 0; l < levels; l++ {
			var fs []model.Flow
			for p := 0; p < 1<<l; p++ {
				fs = append(fs, model.F(p, p+(1<<l)))
			}
			phases = append(phases, trace.PhaseSpec{
				Label: fmt.Sprintf("bcast.l%d", l),
				Flows: sortedFlows(fs),
				Bytes: cfg.bytes(8),
			})
		}
		if len(phases) > 0 { // one processor exchanges nothing
			phases[len(phases)-1].ComputeAfter = computeGap
		}
	}
	return trace.BuildPhased(fmt.Sprintf("MG.%d", procs), procs, phases), nil
}

// BT generates the Block Tridiagonal pattern on a √N×√N process grid:
// boundary face exchanges with the four grid neighbors followed by forward
// and backward line sweeps along rows, columns, and wrapped diagonals (the
// multipartition scheme). Requires a perfect-square processor count.
func BT(procs int, cfg Config) (*model.Pattern, error) {
	return sweepBenchmark("BT", procs, cfg, cfg.iters(3), 10240, 200)
}

// SP generates the Scalar Pentadiagonal pattern. Its structure mirrors BT
// (the paper: "BT and SP ... are based on a similar algorithm") with more
// iterations and smaller payloads.
func SP(procs int, cfg Config) (*model.Pattern, error) {
	return sweepBenchmark("SP", procs, cfg, cfg.iters(4), 4096, 120)
}

func sweepBenchmark(name string, procs int, cfg Config, iters, bytes int, computeUnit float64) (*model.Pattern, error) {
	k := int(math.Round(math.Sqrt(float64(procs))))
	if k*k != procs {
		return nil, &ProcCountError{Benchmark: name, Procs: procs, Want: "perfect-square"}
	}
	var phases []trace.PhaseSpec
	computeGap := cfg.compute(computeUnit / float64(procs) * 16)
	at := func(r, c int) int { return ((r+k)%k)*k + (c+k)%k }
	for it := 0; it < iters; it++ {
		// Boundary face exchange with the four grid neighbors. Each
		// direction is its own synchronized call (MPI sendrecv-style),
		// so every phase is a permutation: one send and one receive
		// per processor per phase.
		type face struct {
			label  string
			dr, dc int
		}
		for _, fc := range []face{{"faces.x+", 0, 1}, {"faces.x-", 0, -1}, {"faces.y+", 1, 0}, {"faces.y-", -1, 0}} {
			var fs []model.Flow
			for r := 0; r < k; r++ {
				for c := 0; c < k; c++ {
					fs = append(fs, model.F(at(r, c), at(r+fc.dr, c+fc.dc)))
				}
			}
			phases = append(phases, trace.PhaseSpec{
				Label: fc.label, Flows: sortedFlows(dedupFlows(fs)), Bytes: cfg.bytes(bytes / 4),
			})
		}
		// Line sweeps along the three multipartition directions (rows,
		// columns, diagonals), forward then backward. A line solver
		// pipelines: cell s forwards to cell s+1 only after its own
		// substitution step, so each sweep is k-1 sequential wavefront
		// calls of k concurrent messages (one per line), not one big
		// permutation — this is what the paper's MPI traces look like.
		type dir struct {
			label string
			// cell maps (line, position) to a processor.
			cell func(line, pos int) int
		}
		dirs := []dir{
			{"sweep.x", func(line, pos int) int { return at(line, pos) }},
			{"sweep.y", func(line, pos int) int { return at(pos, line) }},
			{"sweep.z", func(line, pos int) int { return at(pos, pos+line) }},
		}
		for _, d := range dirs {
			for _, sign := range []int{1, -1} {
				for step := 0; step < k-1; step++ {
					s := step
					if sign < 0 {
						s = k - 1 - step
					}
					var fs []model.Flow
					for line := 0; line < k; line++ {
						fs = append(fs, model.F(d.cell(line, s), d.cell(line, s+sign)))
					}
					phases = append(phases, trace.PhaseSpec{
						Label: fmt.Sprintf("%s.%+d.s%d", d.label, sign, step),
						Flows: sortedFlows(dedupFlows(fs)),
						Bytes: cfg.bytes(bytes),
					})
				}
			}
		}
		phases[len(phases)-1].ComputeAfter = computeGap
	}
	return trace.BuildPhased(fmt.Sprintf("%s.%d", name, procs), procs, phases), nil
}

func dedupFlows(fs []model.Flow) []model.Flow {
	seen := make(map[model.Flow]bool, len(fs))
	out := fs[:0]
	for _, f := range fs {
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}
