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

// scriptArena holds the buffers build carves scripts out of; a pooled
// engine keeps one, so a warm simulation builds its scripts in place.
type scriptArena struct {
	scripts [][]op
	counts  []int
	ops     []op
	msgs    []int
	order   []int
	phases  []model.Phase
}

// build converts a communication pattern into per-processor scripts under
// the phase-parallel model: within each phase every participating processor
// posts its send (paying the send overhead), then blocks on its receive; a
// phase's compute gap busies every processor afterwards. Patterns without
// phase metadata are treated as a sequence of single-message phases in
// start-time order (conservative trace-driven fallback). The scripts alias
// the arena until its next build.
func (a *scriptArena) build(p *model.Pattern) [][]op {
	a.scripts = resized(a.scripts, p.Procs)
	scripts := a.scripts
	phases := p.Phases
	if len(phases) == 0 {
		phases = a.syntheticPhases(p)
	}
	// First pass: per-processor op counts, so every script is carved out
	// of one flat arena instead of growing by repeated append.
	a.counts = resized(a.counts, p.Procs)
	counts := a.counts
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
	a.ops = resized(a.ops, total)
	off := 0
	for proc, n := range counts {
		scripts[proc] = a.ops[off : off : off+n]
		off += n
	}
	msgs := a.msgs
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
	a.msgs = msgs
	return scripts
}

// syntheticPhases returns one single-message phase per message, in
// start-time order, built in the arena.
func (a *scriptArena) syntheticPhases(p *model.Pattern) []model.Phase {
	a.order = resized(a.order, len(p.Messages))
	order := a.order
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return p.Messages[order[x]].Start < p.Messages[order[y]].Start
	})
	a.phases = resized(a.phases, len(order))
	for i := range order {
		// Each single-message phase aliases one element of order — never
		// mutated, and cheaper than a fresh slice per phase.
		a.phases[i] = model.Phase{Messages: order[i : i+1]}
	}
	return a.phases
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
