// Package model implements the temporal and spatial contention model of
// Section 2 of Ho & Pinkston, "A Methodology for Designing Efficient On-Chip
// Interconnects on Well-Behaved Communication Patterns" (HPCA 2003).
//
// The model characterizes an application's communication by a set of timed
// messages (Definition 2), derives the overlap relation O (Definition 3), the
// potential communication contention set C (Definition 4), and the
// communication clique set K with its dominance-reduced maximum clique set
// (Definition 5). Together with a network resource conflict set R
// (Definition 7, computed by package routing), Theorem 1 gives a sufficient
// condition for contention-free communication: C ∩ R = ∅.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Node identifies a processor (end node). Nodes are 0-based indices into the
// processor set P of Definition 1.
type Node = int

// Flow is a source-destination pair, the unit at which the design methodology
// reasons about communication. Distinct messages with the same endpoints are
// the same flow.
type Flow struct {
	Src, Dst Node
}

// F is a shorthand constructor for a flow.
func F(src, dst Node) Flow { return Flow{Src: src, Dst: dst} }

func (f Flow) String() string { return fmt.Sprintf("(%d,%d)", f.Src, f.Dst) }

// Reverse returns the flow in the opposite direction.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

// Less orders flows lexicographically by (Src, Dst).
func (f Flow) Less(g Flow) bool {
	if f.Src != g.Src {
		return f.Src < g.Src
	}
	return f.Dst < g.Dst
}

// Message is a single timed communication (Definition 2): it leaves its
// source at Start and is completely absorbed by its destination at Finish.
// Times are in abstract trace units; the simulator rescales them to cycles.
type Message struct {
	ID     int
	Src    Node
	Dst    Node
	Start  float64
	Finish float64
	Bytes  int
}

// Flow returns the message's source-destination pair.
func (m Message) Flow() Flow { return Flow{Src: m.Src, Dst: m.Dst} }

// Overlaps reports whether two messages potentially collide in time per the
// overlap relation O of Definition 3. The relation is the standard inclusive
// interval-intersection predicate.
func Overlaps(a, b Message) bool {
	return a.Start <= b.Finish && b.Start <= a.Finish
}

// Phase records that a contiguous group of messages came from one
// synchronized communication library call (the phase-parallel model of
// Section 3). Phases are optional metadata: the contention model itself works
// purely from message timing.
type Phase struct {
	Label string
	// Messages holds indices into Pattern.Messages.
	Messages []int
	// Start and Finish bound the phase in trace time.
	Start, Finish float64
	// ComputeAfter is the compute gap that follows the phase, in trace
	// time units. The simulator converts it to processor busy cycles.
	ComputeAfter float64
}

// Pattern is the communication pattern of an application (Definition 2): the
// set of all messages passed between processes, plus optional phase metadata.
type Pattern struct {
	// Name identifies the workload (e.g. "CG.16").
	Name string
	// Procs is the number of processors; message endpoints must lie in
	// [0, Procs).
	Procs int
	// Messages is the set M of all messages.
	Messages []Message
	// Phases optionally groups messages into synchronized library calls.
	Phases []Phase
}

// Validate checks structural invariants: a processor count in [1, 2^32], so
// every node packs into a flow key, endpoint ranges, non-negative durations,
// and phase indices.
func (p *Pattern) Validate() error {
	if p.Procs <= 0 {
		return fmt.Errorf("pattern %q: Procs must be positive, got %d", p.Name, p.Procs)
	}
	if int64(p.Procs) > 1<<32 {
		return fmt.Errorf("pattern %q: Procs %d exceeds 2^32, the node range a flow key packs", p.Name, p.Procs)
	}
	for i, m := range p.Messages {
		if m.Src < 0 || m.Src >= p.Procs {
			return fmt.Errorf("pattern %q: message %d source %d out of range [0,%d)", p.Name, i, m.Src, p.Procs)
		}
		if m.Dst < 0 || m.Dst >= p.Procs {
			return fmt.Errorf("pattern %q: message %d destination %d out of range [0,%d)", p.Name, i, m.Dst, p.Procs)
		}
		if math.IsNaN(m.Start) || math.IsNaN(m.Finish) {
			return fmt.Errorf("pattern %q: message %d has a NaN time (%g to %g)", p.Name, i, m.Start, m.Finish)
		}
		if m.Finish < m.Start {
			return fmt.Errorf("pattern %q: message %d finishes (%g) before it starts (%g)", p.Name, i, m.Finish, m.Start)
		}
		if m.Bytes < 0 {
			return fmt.Errorf("pattern %q: message %d has negative size %d", p.Name, i, m.Bytes)
		}
	}
	for pi, ph := range p.Phases {
		for _, mi := range ph.Messages {
			if mi < 0 || mi >= len(p.Messages) {
				return fmt.Errorf("pattern %q: phase %d references message %d, have %d messages", p.Name, pi, mi, len(p.Messages))
			}
		}
		if ph.ComputeAfter < 0 || math.IsNaN(ph.ComputeAfter) {
			return fmt.Errorf("pattern %q: phase %d has negative or NaN compute gap %g", p.Name, pi, ph.ComputeAfter)
		}
	}
	return nil
}

// Flows returns the distinct flows of the pattern in sorted order,
// excluding self-flows (src == dst), which never use the network. Repeated
// flows are dropped before anything is sorted (keySet), so the sort is over
// the pattern's flows, not its messages. A pattern with a node that does not
// pack into a flow key, which Validate rejects, has every flow sorted by
// comparison and the repeats dropped after.
func (p *Pattern) Flows() []Flow {
	var s keySet
	for _, m := range p.Messages {
		if m.Src == m.Dst {
			continue
		}
		k, ok := flowKey(m.Flow())
		if !ok {
			var out []Flow
			for _, m := range p.Messages {
				if m.Src != m.Dst {
					out = append(out, m.Flow())
				}
			}
			slices.SortFunc(out, func(f, g Flow) int {
				return cmp.Or(cmp.Compare(f.Src, g.Src), cmp.Compare(f.Dst, g.Dst))
			})
			return slices.Compact(out)
		}
		s.add(k)
	}
	if len(s.keys) == 0 {
		return nil
	}
	return s.sortedFlows()
}

// TotalBytes sums the payload of all messages.
func (p *Pattern) TotalBytes() int {
	total := 0
	for _, m := range p.Messages {
		total += m.Bytes
	}
	return total
}

// Span returns the earliest start and latest finish over all messages, or
// zeros for an empty pattern.
func (p *Pattern) Span() (start, finish float64) {
	if len(p.Messages) == 0 {
		return 0, 0
	}
	start, finish = p.Messages[0].Start, p.Messages[0].Finish
	for _, m := range p.Messages[1:] {
		if m.Start < start {
			start = m.Start
		}
		if m.Finish > finish {
			finish = m.Finish
		}
	}
	return start, finish
}
