package harness

import (
	"fmt"
	"strings"

	"repro/internal/coloring"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/parallel"
	"repro/internal/synth"
	"repro/internal/trace"
)

// ColoringQualityRow measures, for one benchmark, how tight the Fast_Color
// lower bound is against the formal chromatic number over every pipe of the
// generated network — the Section 3.3 claim that the fast bound is "close".
type ColoringQualityRow struct {
	Benchmark string
	Procs     int
	Pipes     int
	// Tight counts pipe directions where fast == chromatic.
	Tight int
	// MaxGap is the largest chromatic - fast difference observed.
	MaxGap int
}

// ColoringQuality evaluates Fast_Color tightness on each benchmark's
// generated network at the given size. Benchmark cells run on the Workers
// pool.
func (c Config) ColoringQuality(procs map[string]int) ([]ColoringQualityRow, error) {
	names := nas.Names()
	return parallel.MapObserved(c.Obs, "harness.coloring_quality", c.Workers, len(names), func(i int) (ColoringQualityRow, error) {
		name := names[i]
		n := procs[name]
		if n == 0 {
			_, n = nas.PaperProcs(name)
		}
		d, err := c.BuildDesign(name, n)
		if err != nil {
			return ColoringQualityRow{}, err
		}
		ix := model.NewFlowIndex(d.Pattern.Flows())
		cliqueBits := ix.CliqueBits(d.Result.Cliques)
		contention := model.ConflictMatrixFromCliques(ix, d.Result.Cliques)
		row := ColoringQualityRow{Benchmark: name, Procs: n}
		// Reconstruct per-pipe-direction flow sets from the routes.
		dirFlows := make(map[[2]int]model.BitSet)
		for f, r := range d.Result.Table.Routes {
			id, _ := ix.ID(f)
			for i := 1; i < len(r.Switches); i++ {
				key := [2]int{int(r.Switches[i-1]), int(r.Switches[i])}
				if dirFlows[key] == nil {
					dirFlows[key] = model.NewBitSet(ix.Len())
				}
				dirFlows[key].Set(id)
			}
		}
		for _, flows := range dirFlows {
			fast := coloring.FastColorBits(cliqueBits, flows)
			chrom, _, _ := coloring.Color(flows, contention)
			row.Pipes++
			if fast == chrom {
				row.Tight++
			}
			if gap := chrom - fast; gap > row.MaxGap {
				row.MaxGap = gap
			}
		}
		return row, nil
	})
}

// RenderColoringQuality formats the coloring-quality rows.
func RenderColoringQuality(rows []ColoringQualityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.3: Fast_Color vs formal coloring over generated pipes\n")
	fmt.Fprintf(&b, "%-6s %5s | %6s %6s %7s\n", "bench", "procs", "pipes", "tight", "max gap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %5d | %6d %6d %7d\n", r.Benchmark, r.Procs, r.Pipes, r.Tight, r.MaxGap)
	}
	return b.String()
}

// AblationRow compares synthesis variants on one benchmark.
type AblationRow struct {
	Benchmark string
	Procs     int
	Variant   string
	Switches  int
	Links     int
	Met       bool
	Free      bool
}

// Ablations runs the design-choice ablations on one benchmark: the full
// methodology, Best_Route disabled, global refinement disabled, and annealed
// moves.
func (c Config) Ablations(benchmark string, procs int) ([]AblationRow, error) {
	pat, err := c.generate(benchmark, procs)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name    string
		variant synth.Variant
	}{
		{"full", synth.Full},
		{"no-bestroute", synth.NoBestRoute},
		{"no-refine", synth.NoGlobalRefine},
		{"annealed", synth.Annealed},
	}
	// Every variant synthesizes from the same immutable pattern; the
	// variant cells run on the Workers pool.
	return parallel.MapObserved(c.Obs, "harness.ablation", c.Workers, len(variants), func(i int) (AblationRow, error) {
		v := variants[i]
		opt := c.synthOptions()
		opt.Variant = v.variant
		res, err := synth.Synthesize(pat, opt)
		if err != nil {
			return AblationRow{}, fmt.Errorf("ablation %s: %v", v.name, err)
		}
		return AblationRow{
			Benchmark: benchmark,
			Procs:     procs,
			Variant:   v.name,
			Switches:  res.Net.NumSwitches(),
			Links:     res.Net.TotalLinks(),
			Met:       res.ConstraintsMet,
			Free:      res.ContentionFree,
		}, nil
	})
}

// RenderAblations formats ablation rows.
func RenderAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Methodology ablations\n")
	fmt.Fprintf(&b, "%-6s %5s %-14s | %8s %6s | %-5s %-5s\n", "bench", "procs", "variant", "switches", "links", "met", "free")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %5d %-14s | %8d %6d | %-5v %-5v\n",
			r.Benchmark, r.Procs, r.Variant, r.Switches, r.Links, r.Met, r.Free)
	}
	return b.String()
}

// SkewRow measures the skew-robustness tradeoff of Section 4: how many
// C ∩ R witnesses (model-level contention events) appear when the ideal
// pattern is skewed but the network was designed for the unskewed one.
type SkewRow struct {
	Skew      float64
	Witnesses int
	Periods   int
}

// SkewRobustness designs a network for the ideal pattern, then recomputes
// the contention set under increasing per-processor time skew and counts
// Theorem 1 violations. The paper argues (and Figure 8 confirms) that the
// residual contention from skew is small; this quantifies it at the model
// level.
func (c Config) SkewRobustness(benchmark string, procs int, skews []float64) ([]SkewRow, error) {
	d, err := c.BuildDesign(benchmark, procs)
	if err != nil {
		return nil, err
	}
	ix := model.NewFlowIndex(d.Pattern.Flows())
	r := d.Result.Table.ConflictMatrix(ix)
	return parallel.MapObserved(c.Obs, "harness.skew", c.Workers, len(skews), func(i int) (SkewRow, error) {
		s := skews[i]
		// Skew moves messages in time only, so the skewed trace's flows
		// are the ideal pattern's and ix interns both.
		periods := model.ContentionPeriods(trace.ApplySkew(d.Pattern, s, c.Seed+7))
		_, witnesses := model.ContentionFreeBits(model.ConflictMatrixFromCliques(ix, periods), r)
		return SkewRow{
			Skew:      s,
			Witnesses: len(witnesses),
			Periods:   len(periods),
		}, nil
	})
}

// RenderSkewTable formats skew-robustness rows.
func RenderSkewTable(benchmark string, rows []SkewRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Skew robustness of the %s-generated network (C ∩ R under skewed traces)\n", benchmark)
	fmt.Fprintf(&b, "%8s | %9s %8s\n", "skew", "witnesses", "periods")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f | %9d %8d\n", r.Skew, r.Witnesses, r.Periods)
	}
	return b.String()
}
