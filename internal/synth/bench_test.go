package synth

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

func BenchmarkSynthesizeFigure1(b *testing.B) {
	pat := nas.Figure1Pattern()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Synthesize(pat, Options{Seed: 1, Restarts: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.ContentionFree {
			b.Fatal("not contention-free")
		}
	}
}

func BenchmarkSynthesizeCG16(b *testing.B) {
	pat, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(pat, Options{Seed: 1, Restarts: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeBT16 is the heaviest paper cell at full size (the
// default 4 restarts, serial): the pattern whose merge sweeps dominate a cold
// synthesis, so the one where mergeRefine's port bound has most to skip and
// Best_Route's floors have most to prune.
func BenchmarkSynthesizeBT16(b *testing.B) { benchSynthesizeBT16(b) }

// BenchmarkSynthesizeBT16Reference is BenchmarkSynthesizeBT16 with every
// candidate priced (priceEveryTarget): each dead switch, each candidate
// whose floor already loses and each probe of a sealed processor. make
// bench-synth gates the ratio of the two.
func BenchmarkSynthesizeBT16Reference(b *testing.B) {
	priceEveryTarget = true
	defer func() { priceEveryTarget = false }()
	benchSynthesizeBT16(b)
}

func benchSynthesizeBT16(b *testing.B) {
	pat, err := nas.Generate("BT", 16, nas.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(pat, Options{Seed: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeHierNoI is the NoI level of hier FFT/16 under four
// clusters (default restarts, serial): no restart ever meets the degree
// budget, so every one runs all its rounds and no merge sweep — the
// probe-bound case, where the candidate evaluator is the whole cost.
func BenchmarkSynthesizeHierNoI(b *testing.B) { benchSynthesizeHierNoI(b, 1) }

// BenchmarkSynthesizeHierNoIWorkers2 is BenchmarkSynthesizeHierNoI on two
// workers: the four configured restarts, then the twelve extension restarts
// streamed, all unmet, so both workers stay busy to the end. make
// bench-workers gates the ratio of the two.
func BenchmarkSynthesizeHierNoIWorkers2(b *testing.B) { benchSynthesizeHierNoI(b, 2) }

// BenchmarkSynthesizeHierNoIReference is BenchmarkSynthesizeHierNoI with
// every candidate priced (priceEveryTarget): each dead switch, each
// candidate whose floor already loses and each probe of a sealed processor,
// with the processor lists moved at every swap probe. make bench-synth gates
// the ratio of the two.
func BenchmarkSynthesizeHierNoIReference(b *testing.B) {
	priceEveryTarget = true
	defer func() { priceEveryTarget = false }()
	benchSynthesizeHierNoI(b, 1)
}

// BenchmarkSynthesizeHierNoIEveryRound is BenchmarkSynthesizeHierNoI with
// every round assembled and validated (assembleEveryRound), as every round
// was before a round only coloured and counted degrees. make bench-rounds
// gates the ratio of the two.
func BenchmarkSynthesizeHierNoIEveryRound(b *testing.B) {
	assembleEveryRound = func([]int, *topology.Network, *routing.Table) {}
	defer func() { assembleEveryRound = nil }()
	benchSynthesizeHierNoI(b, 1)
}

func benchSynthesizeHierNoI(b *testing.B, workers int) {
	pat := noiFFT16(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Synthesize(pat, Options{Seed: 1, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if res.ConstraintsMet {
			b.Fatal("the NoI level met its constraints: this is no longer the every-round case")
		}
	}
}

// TestSynthesizeAllocCeiling is the allocation floor the retired perf-synth
// gate enforced, as absolutes. That gate required the move engine to allocate
// at least 5x less than the closure-based reference evaluator in the same
// run; the reference's counts were deterministic — 124,578 allocs/op on
// Figure 1 and 20,938 on CG/16 when last measured — so each ceiling is that
// count divided by 5. (The engine's own counts then: 2,794 and 1,101.) The
// FFT/16 NoI level (BenchmarkSynthesizeHierNoI's run) holds the per-round
// check to colouring: 16 restarts of 16 rounds each allocated about 33,300
// times when every round built and validated its network and table, and
// about 7,300 with one assembly per restart (up to about 9,900 under -race,
// whose sync.Pool drops pooled states at random). The time half of the gate is
// carried by the bench/ ledger's cold_synth and warm_variants workloads,
// which compare every change with its real parent.
func TestSynthesizeAllocCeiling(t *testing.T) {
	cg16, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pat     *model.Pattern
		opt     Options
		ceiling float64
	}{
		{nas.Figure1Pattern(), Options{Seed: 1, Restarts: 1, Workers: 1}, 24915}, // 124,578 / 5
		{cg16, Options{Seed: 1, Restarts: 1, Workers: 1}, 4187},                  // 20,938 / 5
		{noiFFT16(t), Options{Seed: 1, Workers: 1}, 15000},                       // ~7,300 measured
	} {
		got := testing.AllocsPerRun(5, func() {
			if _, err := Synthesize(c.pat, c.opt); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per Synthesize, ceiling %.0f", c.pat.Name, got, c.ceiling)
		}
	}
}

// warmSweepVariants are the warm-start sweep cells: the same NAS app (CG-16)
// at varied payload and compute scales — the "many similar traces" shape the
// warm-start path exists for. Shared by the Cold/Seeded benchmark pair so the
// bench-warm ratio compares identical work.
func warmSweepVariants(b *testing.B) []*model.Pattern {
	b.Helper()
	var pats []*model.Pattern
	for _, cfg := range []nas.Config{
		{Iterations: 1, ByteScale: 0.5},
		{Iterations: 1, ByteScale: 2},
		{Iterations: 1, ComputeScale: 0.5},
		{Iterations: 1, ComputeScale: 2},
		{Iterations: 2, ByteScale: 4},
	} {
		pat, err := nas.Generate("CG", 16, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pats = append(pats, pat)
	}
	return pats
}

// BenchmarkWarmStartSweepCold is the numerator of the bench-warm gate: every
// sweep cell pays the full cold restart loop.
func BenchmarkWarmStartSweepCold(b *testing.B) {
	pats := warmSweepVariants(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pat := range pats {
			res, err := Synthesize(pat, Options{Seed: 1, Restarts: 1})
			if err != nil {
				b.Fatal(err)
			}
			if !res.ConstraintsMet {
				b.Fatal("constraints unmet")
			}
		}
	}
}

// BenchmarkWarmStartSweepSeeded is the denominator: one cold base run
// outside the timer supplies the seed; each cell then pays fingerprinting,
// the segment diff, and the seeded replay/refine path — everything a warm
// server request pays after the nearest-design lookup. `make bench-warm`
// gates Cold:Seeded at >= 3x.
func BenchmarkWarmStartSweepSeeded(b *testing.B) {
	pats := warmSweepVariants(b)
	base, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	baseRes, err := Synthesize(base, Options{Seed: 1, Restarts: 1})
	if err != nil {
		b.Fatal(err)
	}
	seed := SeedFromDesign(baseRes.Net, baseRes.Table)
	baseFP := trace.FingerprintPattern(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pat := range pats {
			fp := trace.FingerprintPattern(pat)
			sd := *seed
			sd.ChangedProcs = fp.ChangedSegments(baseFP)
			res, err := Synthesize(pat, Options{Seed: 1, Restarts: 1, SeedDesign: &sd})
			if err != nil {
				b.Fatal(err)
			}
			if !res.ConstraintsMet {
				b.Fatal("constraints unmet")
			}
			if res.Stats.SeededRestarts == 0 {
				b.Fatal("seeded restart did not run")
			}
		}
	}
}

// BenchmarkSynthesizeWarmMiss is a server warm miss in-process: a structural
// variant of BT/9 seeded from its base's design, at the default four
// restarts, serial. The replayed tree meets the constraints, so no restart
// draws and the first one's result is folded for the other three
// (restartKind).
func BenchmarkSynthesizeWarmMiss(b *testing.B) {
	base, err := nas.Generate("BT", 9, nas.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := nas.Generate("BT", 9, nas.Config{Iterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	baseRes, err := Synthesize(base, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sd := SeedFromDesign(baseRes.Net, baseRes.Table)
	sd.ChangedProcs = trace.FingerprintPattern(pat).ChangedSegments(trace.FingerprintPattern(base))
	cliques := model.MaxCliqueSet(pat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SynthesizeCliques(context.Background(), pat, cliques, Options{Seed: 1001, Workers: 1, SeedDesign: sd}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeParallel measures restart fan-out scaling on CG-16:
// eight restarts spread over 1/2/4/8 workers. Every sub-benchmark computes
// the identical design; only wall-clock should change with worker count
// (on a multi-core host, 4 workers should cut time by ≥2× versus 1).
func BenchmarkSynthesizeParallel(b *testing.B) {
	pat, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Synthesize(pat, Options{Seed: 1, Restarts: 8, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if !res.ContentionFree {
					b.Fatal("not contention-free")
				}
			}
		})
	}
}
