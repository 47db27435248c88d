package obs

import (
	"fmt"
	"testing"
)

// BenchmarkNopObserverCount measures the disabled telemetry path: a nil
// Observer through the package helpers. This is the per-call overhead every
// instrumented hot path pays when no -report sink is attached; it must stay
// allocation-free, which TestDisabledPathAllocationFree holds (DESIGN.md §7).
func BenchmarkNopObserverCount(b *testing.B) {
	var o Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(o, "bench.counter", 1)
	}
}

// BenchmarkNopObserverSpan measures the disabled span path: open + close on
// a nil Observer, which must not touch the clock or allocate.
func BenchmarkNopObserverSpan(b *testing.B) {
	var o Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Span(o, "bench.span").End()
	}
}

// TestDisabledPathAllocationFree pins the contract the hot-path call-site
// convention depends on: with a nil Observer, Count, Span+End, and a
// *guarded* formatted Emit perform zero allocations. The guarded-Emit case
// is the pattern required wherever an event detail is built with
// fmt.Sprintf — the format call must sit behind its own nil check, because
// Go evaluates arguments before Emit's internal check can skip them.
func TestDisabledPathAllocationFree(t *testing.T) {
	var o Observer
	cases := []struct {
		name string
		fn   func()
	}{
		{"count", func() { Count(o, "bench.counter", 1) }},
		{"span", func() { Span(o, "bench.span").End() }},
		{"guarded-emit", func() {
			if o != nil {
				Emit(o, "bench.event", fmt.Sprintf("detail=%d", 42))
			}
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: disabled path allocates %.1f per call, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkCollectorCount measures the enabled counter path (mutex + map).
func BenchmarkCollectorCount(b *testing.B) {
	c := NewCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(c, "bench.counter", 1)
	}
}

// BenchmarkCollectorSpan measures the enabled span path (two clock reads
// plus the aggregate update).
func BenchmarkCollectorSpan(b *testing.B) {
	c := NewCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Span(c, "bench.span").End()
	}
}
