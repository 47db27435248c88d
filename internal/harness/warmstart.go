package harness

import (
	"fmt"
	"strings"

	"repro/internal/nas"
	"repro/internal/parallel"
	"repro/internal/synth"
	"repro/internal/trace"
)

// WarmStartRow compares seeded against cold synthesis on one scaled variant
// of a benchmark. Costs use the resource fold the synthesizer itself
// minimizes (TotalLinks + 2·NumSwitches); effort uses the deterministic
// MovesEvaluated counter, not wall-clock, so rows are identical for every
// worker count.
type WarmStartRow struct {
	Variant        string
	Distance       float64
	ColdCost       int
	WarmCost       int
	ColdMoves      int
	WarmMoves      int
	SeededRestarts int
	ConstraintsMet bool
	ContentionFree bool
}

// warmStartVariants are the sweep cells: payload, compute, and iteration
// scalings of the base workload — the "many similar traces" shape the
// warm-start path exists for. Each mutates a copy of the resolved base
// generator config.
func warmStartVariants(base nas.Config) []struct {
	Name string
	Cfg  nas.Config
} {
	mul := func(v, f float64) float64 {
		if v == 0 {
			v = 1
		}
		return v * f
	}
	iters := base.Iterations
	if iters == 0 {
		iters = 1
	}
	cells := []struct {
		Name string
		Cfg  nas.Config
	}{
		{"bytes/2", base}, {"bytes*2", base}, {"compute/2", base}, {"compute*2", base}, {"iters*2 bytes*4", base},
	}
	cells[0].Cfg.ByteScale = mul(base.ByteScale, 0.5)
	cells[1].Cfg.ByteScale = mul(base.ByteScale, 2)
	cells[2].Cfg.ComputeScale = mul(base.ComputeScale, 0.5)
	cells[3].Cfg.ComputeScale = mul(base.ComputeScale, 2)
	cells[4].Cfg.Iterations = iters * 2
	cells[4].Cfg.ByteScale = mul(base.ByteScale, 4)
	return cells
}

// WarmStart runs the warm-start sweep: a cold base design of the benchmark
// seeds each scaled variant, and every cell synthesizes the variant both
// cold and seeded so the row exposes the quality guarantee (WarmCost never
// above ColdCost) and the effort saved. The per-variant cells run on the
// Workers pool.
func (c Config) WarmStart(benchmark string, procs int) ([]WarmStartRow, error) {
	baseCfg := c.nasConfig()
	basePat, err := nas.Generate(benchmark, procs, baseCfg)
	if err != nil {
		return nil, err
	}
	baseRes, err := synth.Synthesize(basePat, c.synthOptions())
	if err != nil {
		return nil, err
	}
	seed := synth.SeedFromDesign(baseRes.Net, baseRes.Table)
	if seed == nil {
		return nil, fmt.Errorf("harness: warmstart %s/%d: base design yields no seed", benchmark, procs)
	}
	baseFP := trace.FingerprintPattern(basePat)

	cells := warmStartVariants(baseCfg)
	return parallel.MapObserved(c.Obs, "harness.warmstart", c.Workers, len(cells), func(i int) (WarmStartRow, error) {
		cell := cells[i]
		pat, err := nas.Generate(benchmark, procs, cell.Cfg)
		if err != nil {
			return WarmStartRow{}, fmt.Errorf("warmstart %s/%d %s: %v", benchmark, procs, cell.Name, err)
		}
		// Cells already fan out on the pool; keep each synthesis serial so
		// nested parallelism cannot oversubscribe it.
		opt := c.synthOptions()
		opt.Workers = 1
		cold, err := synth.Synthesize(pat, opt)
		if err != nil {
			return WarmStartRow{}, fmt.Errorf("warmstart %s cold: %v", cell.Name, err)
		}
		fp := trace.FingerprintPattern(pat)
		sd := *seed
		sd.ChangedProcs = fp.ChangedSegments(baseFP)
		opt.SeedDesign = &sd
		warm, err := synth.Synthesize(pat, opt)
		if err != nil {
			return WarmStartRow{}, fmt.Errorf("warmstart %s seeded: %v", cell.Name, err)
		}
		return WarmStartRow{
			Variant:        cell.Name,
			Distance:       fp.Distance(baseFP),
			ColdCost:       cold.ResourceCost(),
			WarmCost:       warm.ResourceCost(),
			ColdMoves:      cold.Stats.MovesEvaluated,
			WarmMoves:      warm.Stats.MovesEvaluated,
			SeededRestarts: warm.Stats.SeededRestarts,
			ConstraintsMet: warm.ConstraintsMet,
			ContentionFree: warm.ContentionFree,
		}, nil
	})
}

// RenderWarmStart formats the warm-start sweep.
func RenderWarmStart(benchmark string, rows []WarmStartRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Warm-start sweep on %s variants (cost = links + 2*switches)\n", benchmark)
	fmt.Fprintf(&b, "%-16s | %5s | %9s %9s | %10s %10s | %6s | %-5s %-5s\n",
		"variant", "dist", "cold cost", "warm cost", "cold moves", "warm moves", "seeded", "degOK", "free")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s | %5.2f | %9d %9d | %10d %10d | %6d | %-5v %-5v\n",
			r.Variant, r.Distance, r.ColdCost, r.WarmCost, r.ColdMoves, r.WarmMoves,
			r.SeededRestarts, r.ConstraintsMet, r.ContentionFree)
	}
	return b.String()
}
