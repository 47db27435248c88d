package obs

import (
	"sort"
	"sync"
	"time"
)

// maxEvents bounds the Collector's event buffer; further events are counted
// but dropped so a chatty emitter cannot balloon a report.
const maxEvents = 1024

// Collector is the standard Observer implementation: a mutex-guarded
// aggregate of counters, span summaries, and a bounded event log. All
// methods are safe for concurrent use and safe on a nil receiver, so a nil
// *Collector stored in an Observer interface still behaves as a no-op sink.
type Collector struct {
	mu       sync.Mutex
	start    time.Time
	counters map[string]int64
	spans    map[string]*spanAgg
	events   []EventRecord
	dropped  int64
}

type spanAgg struct {
	count, total, min, max int64
}

// EventRecord is one recorded event.
type EventRecord struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	AtNs   int64  `json:"at_ns"`
}

// NewCollector returns an empty Collector whose event timestamps are
// measured from now.
func NewCollector() *Collector {
	return &Collector{
		start:    time.Now(),
		counters: make(map[string]int64),
		spans:    make(map[string]*spanAgg),
	}
}

func (c *Collector) now() int64 { return int64(time.Since(c.start)) }

// Count implements Observer.
func (c *Collector) Count(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// SpanStart implements Observer; a Collector only aggregates closed spans.
func (*Collector) SpanStart(string) {}

// SpanEnd implements Observer.
func (c *Collector) SpanEnd(name string, d time.Duration) {
	if c == nil {
		return
	}
	dur := int64(d)
	c.mu.Lock()
	agg := c.spans[name]
	if agg == nil {
		agg = &spanAgg{min: dur, max: dur}
		c.spans[name] = agg
	}
	agg.count++
	agg.total += dur
	if dur < agg.min {
		agg.min = dur
	}
	if dur > agg.max {
		agg.max = dur
	}
	c.mu.Unlock()
}

// Event implements Observer.
func (c *Collector) Event(name, detail string) {
	if c == nil {
		return
	}
	at := c.now()
	c.mu.Lock()
	if len(c.events) >= maxEvents {
		c.dropped++
	} else {
		c.events = append(c.events, EventRecord{Name: name, Detail: detail, AtNs: at})
	}
	c.mu.Unlock()
}

// Counter returns the current value of one counter.
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Counters returns a copy of the counter map.
func (c *Collector) Counters() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// Events returns a copy of the recorded events in arrival order.
func (c *Collector) Events() []EventRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]EventRecord(nil), c.events...)
}

// Report snapshots the Collector into a RunReport for the named tool.
// Counters come out under JSON's sorted-key map encoding and spans sorted
// by name, so the field order of the serialized artifact is deterministic
// (span and event *values* carry wall-clock time and are not).
func (c *Collector) Report(tool string) *RunReport {
	rep := &RunReport{
		Schema:  ReportSchema,
		Version: ReportVersion,
		Tool:    tool,
	}
	if c == nil {
		rep.Counters = map[string]int64{}
		return rep
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep.Counters = make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		rep.Counters[k] = v
	}
	rep.Spans = make([]SpanSummary, 0, len(c.spans))
	for name, agg := range c.spans {
		rep.Spans = append(rep.Spans, SpanSummary{
			Name:    name,
			Count:   agg.count,
			TotalNs: agg.total,
			MinNs:   agg.min,
			MaxNs:   agg.max,
		})
	}
	sort.Slice(rep.Spans, func(i, j int) bool { return rep.Spans[i].Name < rep.Spans[j].Name })
	rep.Events = append([]EventRecord(nil), c.events...)
	rep.EventsDropped = c.dropped
	return rep
}
