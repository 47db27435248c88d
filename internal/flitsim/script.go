package flitsim

import (
	"sort"

	"repro/internal/model"
)

// opKind enumerates end-node script operations.
type opKind int

const (
	opCompute opKind = iota
	opSend
	opRecv
)

type op struct {
	kind   opKind
	cycles int64 // opCompute: busy time
	msg    int   // opSend/opRecv: message ID
}

// buildScripts converts a communication pattern into per-processor scripts
// under the phase-parallel model: within each phase every participating
// processor posts its send (paying the send overhead), then blocks on its
// receive; a phase's compute gap busies every processor afterwards. Patterns
// without phase metadata are treated as a sequence of single-message phases
// in start-time order (conservative trace-driven fallback).
func buildScripts(p *model.Pattern) [][]op {
	scripts := make([][]op, p.Procs)
	phases := p.Phases
	if len(phases) == 0 {
		phases = syntheticPhases(p)
	}
	// First pass: per-processor op counts, so every script is carved out
	// of one flat arena instead of growing by repeated append.
	counts := make([]int, p.Procs)
	total := 0
	for _, ph := range phases {
		for _, mi := range ph.Messages {
			m := p.Messages[mi]
			counts[m.Src]++
			total++
			if m.Dst != m.Src {
				counts[m.Dst]++
				total++
			}
		}
		if ph.ComputeAfter > 0 {
			for proc := range counts {
				counts[proc]++
			}
			total += p.Procs
		}
	}
	arena := make([]op, total)
	off := 0
	for proc, n := range counts {
		scripts[proc] = arena[off : off : off+n]
		off += n
	}
	var msgs []int
	for _, ph := range phases {
		// Sends first (asynchronous post), then receives, per proc.
		msgs = append(msgs[:0], ph.Messages...)
		sort.Ints(msgs)
		for _, mi := range msgs {
			m := p.Messages[mi]
			scripts[m.Src] = append(scripts[m.Src], op{kind: opSend, msg: m.ID})
		}
		for _, mi := range msgs {
			m := p.Messages[mi]
			if m.Dst != m.Src {
				scripts[m.Dst] = append(scripts[m.Dst], op{kind: opRecv, msg: m.ID})
			}
		}
		if ph.ComputeAfter > 0 {
			busy := int64(ph.ComputeAfter * traceUnitCycles)
			if busy < 1 {
				busy = 1
			}
			for proc := 0; proc < p.Procs; proc++ {
				scripts[proc] = append(scripts[proc], op{kind: opCompute, cycles: busy})
			}
		}
	}
	return scripts
}

func syntheticPhases(p *model.Pattern) []model.Phase {
	order := make([]int, len(p.Messages))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Messages[order[a]].Start < p.Messages[order[b]].Start
	})
	phases := make([]model.Phase, len(order))
	for i := range order {
		// Each single-message phase aliases one element of order — never
		// mutated, and cheaper than a fresh slice per phase.
		phases[i] = model.Phase{Messages: order[i : i+1]}
	}
	return phases
}

// niState is one processor's network interface and script executor.
type niState struct {
	proc      int
	script    []op
	pc        int
	busyUntil int64
	opStart   int64
	started   bool
	queue     []*packet
	comm      int64
}

func (ni *niState) done() bool { return ni.pc >= len(ni.script) }
