package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTeeDegenerateForms(t *testing.T) {
	if got := Tee(); got != nil {
		t.Errorf("Tee() = %v, want nil", got)
	}
	if got := Tee(nil, nil); got != nil {
		t.Errorf("Tee(nil, nil) = %v, want nil", got)
	}
	c := NewCollector()
	if got := Tee(nil, c); got != Observer(c) {
		t.Errorf("Tee(nil, c) should return c itself, got %T", got)
	}
}

func TestTeeFansOutCountersAndEvents(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	o := Tee(a, b)
	Count(o, "tee.hits", 2)
	Count(o, "tee.hits", 3)
	Emit(o, "tee.event", "detail")
	for _, c := range []*Collector{a, b} {
		if got := c.Counter("tee.hits"); got != 5 {
			t.Errorf("counter = %d, want 5", got)
		}
		evs := c.Events()
		if len(evs) != 1 || evs[0].Name != "tee.event" || evs[0].Detail != "detail" {
			t.Errorf("events = %+v", evs)
		}
	}
}

// TestTeeSpanSameDuration: a span carries its duration, so one teed span
// reaches every sink with the same one, however far apart the sinks were
// created.
func TestTeeSpanSameDuration(t *testing.T) {
	a := NewCollector()
	time.Sleep(5 * time.Millisecond) // the sinks' event clocks start apart
	b := NewCollector()
	o := Tee(a, b)
	sp := Span(o, "tee.span")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	ra, rb := a.Report("test").Spans, b.Report("test").Spans
	if len(ra) != 1 || len(rb) != 1 {
		t.Fatalf("spans = %+v and %+v", ra, rb)
	}
	if ra[0] != rb[0] {
		t.Errorf("sinks disagree: %+v and %+v", ra[0], rb[0])
	}
	if s := ra[0]; s.Count != 1 || s.TotalNs < int64(2*time.Millisecond) || s.TotalNs > int64(4*time.Second) {
		t.Errorf("span aggregate %+v out of range", s)
	}
}

// TestTeeSpanAllocationFree: the tee keeps no per-span state, so a span over
// two Collectors allocates nothing once each has its aggregate for the name.
func TestTeeSpanAllocationFree(t *testing.T) {
	o := Tee(NewCollector(), NewCollector())
	if allocs := testing.AllocsPerRun(100, func() { Span(o, "tee.span").End() }); allocs != 0 {
		t.Errorf("teed span allocates %.1f per call, want 0", allocs)
	}
}

func TestTeeConcurrentSpans(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	o := Tee(a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := Span(o, "tee.span")
				Count(o, "tee.n", 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	for _, c := range []*Collector{a, b} {
		if got := c.Counter("tee.n"); got != 800 {
			t.Errorf("counter = %d, want 800", got)
		}
		rep := c.Report("test")
		if len(rep.Spans) != 1 || rep.Spans[0].Count != 800 {
			t.Errorf("spans = %+v", rep.Spans)
		}
	}
}
