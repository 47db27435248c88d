package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from bench/ into a module's public function. Spans
// of one operation share Req; Parent is the span that caused this one (-1
// for the operation's root). Layer calls are replayed after the call that
// contains them, so a child's interval follows its parent's rather than
// nesting inside it; self time subtracts durations, not intervals.
type span struct {
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced twin: every method is a no-op, so the same replay code measures
// the tracing overhead. Not safe for concurrent use; replays are serial.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name, class string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Class: class, Req: req, Parent: parent,
		StartNs: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNs = time.Since(r.t0).Nanoseconds()
}

// selfMs returns, per span name, each span's duration minus its children's,
// in milliseconds. A replayed child can outlast the slice of the parent it
// stands for (noise between two executions of the same call); self time is
// clamped at zero rather than going negative.
func (r *recorder) selfMs() map[string][]float64 {
	if r == nil {
		return nil
	}
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		self := s.EndNs - s.StartNs - children[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
