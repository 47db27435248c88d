package model_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// jitterPattern is the focus input of the warm_variants workload in bench/:
// CG/16 over 39 iterations with every processor skewed by up to half a time
// unit, so phases no longer align and in-flight sets change message by
// message (1,716 messages, 59 distinct periods).
func jitterPattern(tb testing.TB) *model.Pattern {
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 39})
	if err != nil {
		tb.Fatal(err)
	}
	return trace.ApplySkew(p, 0.5, 1)
}

func BenchmarkContentionPeriodsJitter(b *testing.B) {
	p := jitterPattern(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := model.ContentionPeriods(p); len(got) != 59 {
			b.Fatalf("%d periods, want 59", len(got))
		}
	}
}

// TestContentionPeriodsJitterAllocs holds the sweep to allocations that
// scale with the distinct periods and the flow universe, not with the
// messages or the instants visited: the heap-and-NewClique implementation
// it replaced made several thousand on this input.
func TestContentionPeriodsJitterAllocs(t *testing.T) {
	p := jitterPattern(t)
	allocs := testing.AllocsPerRun(10, func() { model.ContentionPeriods(p) })
	if allocs > 120 {
		t.Fatalf("ContentionPeriods made %.0f allocations on the jitter trace, ceiling 120", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
