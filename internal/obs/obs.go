// Package obs is the reproduction's zero-dependency telemetry layer: a
// small Observer interface (monotonic counters, timing spans, structured
// events) that every pipeline package accepts, a race-safe Collector sink
// that aggregates into a schema-versioned RunReport artifact, and nil-safe
// package helpers so the disabled path costs a nil check and nothing else —
// no allocation, no time syscall, no lock.
//
// Conventions (see DESIGN.md §7):
//
//   - Counter and span names are dot-separated lowercase snake_case
//     segments, the first naming the emitting package ("synth.reroutes",
//     "flitsim.vc_stalls", "harness.fig7.cell").
//   - Counters are monotonic sums. Everything counter-valued must be
//     deterministic for a given input: packages whose work fans out over
//     speculative workers (synthesis extension restarts) accumulate
//     into private state and emit only from the deterministic reduction.
//   - Spans carry wall-clock time and are therefore NOT deterministic;
//     reports separate them from counters so artifacts can be diffed on the
//     counter section alone. A span is timed by its SpanHandle and reaches
//     the sink as a name and a duration, so no sink keeps per-span state
//     and a Tee hands every sink the same duration.
//   - Events are bounded in number (Collector caps them) and ordered by
//     arrival, which under concurrent emitters is nondeterministic.
package obs

import "time"

// Observer is the telemetry sink threaded through the pipeline. A nil
// Observer is the canonical "disabled" value; call sites go through the
// package helpers (Count, Span, Emit), which make nil free. Implementations
// must be safe for concurrent use — synthesis restarts and harness cells
// emit from worker goroutines.
type Observer interface {
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// SpanStart is called when a named timing span opens. A sink that only
	// aggregates has nothing to do here; it is the hook for observers that
	// act at a span's start (gate, cancel or fail the work it opens).
	SpanStart(name string)
	// SpanEnd records a closed span and how long it was open.
	SpanEnd(name string, d time.Duration)
	// Event records a one-off structured event.
	Event(name, detail string)
}

// Count adds delta to the named counter, tolerating a nil Observer.
func Count(o Observer, name string, delta int64) {
	if o != nil {
		o.Count(name, delta)
	}
}

// Emit records an event, tolerating a nil Observer.
func Emit(o Observer, name, detail string) {
	if o != nil {
		o.Event(name, detail)
	}
}

// SpanHandle is an open timing span. The zero value (from a nil Observer)
// is inert; End on it is a no-op. It is a plain value, so opening and
// closing spans never allocates.
type SpanHandle struct {
	o     Observer
	name  string
	start time.Time
}

// Span opens a timing span on o, tolerating a nil Observer. The clock is
// read before the start hook runs, so the span covers the hook.
func Span(o Observer, name string) SpanHandle {
	if o == nil {
		return SpanHandle{}
	}
	s := SpanHandle{o: o, name: name, start: time.Now()}
	o.SpanStart(name)
	return s
}

// End closes the span.
func (s SpanHandle) End() {
	if s.o != nil {
		s.o.SpanEnd(s.name, time.Since(s.start))
	}
}
