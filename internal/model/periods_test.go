package model

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// finishHeap is a min-heap of message indices keyed by finish time.
type finishHeap struct {
	idx    []int
	finish func(int) float64
}

func (h *finishHeap) Len() int           { return len(h.idx) }
func (h *finishHeap) Less(i, j int) bool { return h.finish(h.idx[i]) < h.finish(h.idx[j]) }
func (h *finishHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *finishHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *finishHeap) Pop() interface{} {
	n := len(h.idx)
	v := h.idx[n-1]
	h.idx = h.idx[:n-1]
	return v
}

// contentionPeriodsHeap is the implementation ContentionPeriods had before
// the two-cursor sweep replaced it: a finish-time heap of in-flight messages
// and a NewClique rebuild plus string key at every event where the active
// messages changed. It is the oracle the sweep is held equal to.
func contentionPeriodsHeap(p *Pattern) []Clique {
	n := len(p.Messages)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return p.Messages[order[a]].Start < p.Messages[order[b]].Start
	})
	// Event times: all distinct starts and finishes.
	events := make([]float64, 0, 2*n)
	for _, m := range p.Messages {
		events = append(events, m.Start, m.Finish)
	}
	sort.Float64s(events)
	events = dedupFloats(events)

	active := &finishHeap{finish: func(i int) float64 { return p.Messages[i].Finish }}
	next := 0 // next message in start order
	seen := make(map[string]bool)
	var out []Clique
	var flows []Flow
	var keyBuf []byte
	processed := false // an event with this exact active set was already handled
	for _, t := range events {
		changed := false
		// Retire messages that finished strictly before t.
		for active.Len() > 0 && p.Messages[active.idx[0]].Finish < t {
			heap.Pop(active)
			changed = true
		}
		// Admit messages starting at or before t.
		for next < n && p.Messages[order[next]].Start <= t {
			mi := order[next]
			next++
			if p.Messages[mi].Finish >= t {
				heap.Push(active, mi)
				changed = true
			}
		}
		if active.Len() == 0 {
			continue
		}
		// Unchanged active set ⇒ identical clique ⇒ the key-dedup below
		// would drop it anyway; skip the re-sort and key build entirely.
		if !changed && processed {
			continue
		}
		processed = true
		flows = flows[:0]
		for _, mi := range active.idx {
			flows = append(flows, p.Messages[mi].Flow())
		}
		c := NewClique(flows...)
		if len(c) == 0 {
			continue
		}
		keyBuf = c.appendKey(keyBuf[:0])
		if k := string(keyBuf); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func assertSamePeriods(t *testing.T, label string, p *Pattern) {
	t.Helper()
	got, want := ContentionPeriods(p), contentionPeriodsHeap(p)
	if len(got) != len(want) {
		t.Fatalf("%s: %d periods, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: period %d = %v, oracle has %v", label, i, got[i], want[i])
		}
	}
}

// lockstepPattern draws one pattern for the lockstep suite. The shape cycles
// with the trial number: continuous times, times on a coarse grid (duplicate
// starts and finishes, touching and zero-length intervals), and wide
// processor counts whose flow universe needs two and three bitset words.
func lockstepPattern(rng *rand.Rand, trial int) *Pattern {
	procs := []int{2, 5, 9, 12, 16, 40}[trial%6]
	msgs := 1 + rng.Intn(120)
	if procs >= 12 {
		msgs = 150 + rng.Intn(250) // > 64 and > 128 distinct flows
	}
	grid := trial%3 == 1
	p := &Pattern{Name: "lockstep", Procs: procs}
	for i := 0; i < msgs; i++ {
		start, length := rng.Float64()*20, rng.Float64()*4
		if grid {
			start, length = float64(rng.Intn(12)), float64(rng.Intn(3))
		}
		p.Messages = append(p.Messages, Message{
			ID: i, Src: rng.Intn(procs), Dst: rng.Intn(procs), Start: start, Finish: start + length,
		})
	}
	return p
}

func TestContentionPeriodsLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mostFlows := 0
	for trial := 0; trial < 1200; trial++ {
		p := lockstepPattern(rng, trial)
		if n := len(p.Flows()); n > mostFlows {
			mostFlows = n
		}
		assertSamePeriods(t, fmt.Sprintf("trial %d", trial), p)
	}
	if mostFlows <= 128 {
		t.Fatalf("widest pattern had %d flows; the suite must cover three-word bitsets", mostFlows)
	}
}

func TestContentionPeriodsEdgeCases(t *testing.T) {
	if got := ContentionPeriods(&Pattern{Procs: 3}); got != nil {
		t.Fatalf("empty pattern: %v", got)
	}
	selfOnly := &Pattern{Procs: 3, Messages: []Message{
		{Src: 1, Dst: 1, Start: 0, Finish: 2}, {Src: 2, Dst: 2, Start: 1, Finish: 3},
	}}
	if got := ContentionPeriods(selfOnly); got != nil {
		t.Fatalf("self-flows only: %v", got)
	}
	// Every message on the same instant, self-flows and repeats among them.
	oneInstant := &Pattern{Procs: 4}
	for i := 0; i < 12; i++ {
		oneInstant.Messages = append(oneInstant.Messages, Message{Src: i % 4, Dst: (i / 2) % 4, Start: 5, Finish: 5})
	}
	assertSamePeriods(t, "one instant", oneInstant)
	if got := ContentionPeriods(oneInstant); len(got) != 1 {
		t.Fatalf("one instant: %d periods, want 1", len(got))
	}
	// A flow whose messages hand over at one instant (count 1 -> 2 -> 1)
	// never leaves the set; one that ends exactly as its next starts is in
	// flight at that instant too.
	handover := &Pattern{Procs: 4, Messages: []Message{
		{Src: 0, Dst: 1, Start: 0, Finish: 2}, {Src: 0, Dst: 1, Start: 2, Finish: 4},
		{Src: 2, Dst: 3, Start: 1, Finish: 3}, {Src: 2, Dst: 2, Start: 0, Finish: 9},
	}}
	assertSamePeriods(t, "handover", handover)
	// A self-flow contributes no flow but its endpoints are instants: only
	// its start at 3 falls where (0,1) is alone in flight.
	selfInstant := &Pattern{Procs: 4, Messages: []Message{
		{Src: 0, Dst: 1, Start: 0, Finish: 5}, {Src: 2, Dst: 3, Start: 0, Finish: 2},
		{Src: 1, Dst: 1, Start: 3, Finish: 3}, {Src: 3, Dst: 2, Start: 4, Finish: 5},
	}}
	assertSamePeriods(t, "self-flow instant", selfInstant)
	if got := ContentionPeriods(selfInstant); len(got) != 3 || !got[1].Equal(NewClique(F(0, 1))) {
		t.Fatalf("self-flow instant: %v, want {(0,1)} alone as the second period", got)
	}
}

// TestContentionPeriodsHashCollision builds two flow sets that hashBits maps
// to the same value — {flow 0} hashes to 1*hashMul, and the set whose second
// word is hashMul itself hashes to 0*hashMul+hashMul — and checks that both
// survive deduplication, in order, with a repeat of each still recognised.
func TestContentionPeriodsHashCollision(t *testing.T) {
	const procs = 12 // 132 flows: IDs 0..131, three words
	var universe []Flow
	for s := 0; s < procs; s++ {
		for d := 0; d < procs; d++ {
			if s != d {
				universe = append(universe, F(s, d))
			}
		}
	}
	ix := NewFlowIndex(universe)
	low, high := NewBitSet(ix.Len()), NewBitSet(ix.Len())
	low.Set(0)
	high[1] = hashMul
	if low.Equal(high) || hashBits(low) != hashBits(high) {
		t.Fatal("the constructed sets do not collide; hashBits changed and this test must follow it")
	}
	p := &Pattern{Procs: procs}
	at := func(set BitSet, start float64) {
		set.ForEach(func(id int) {
			f := ix.Flow(id)
			p.Messages = append(p.Messages, Message{Src: f.Src, Dst: f.Dst, Start: start, Finish: start + 1})
		})
	}
	// Only flows of the first two words occur, so the sweep's own index
	// gives them the same IDs only if every flow below them occurs too: put
	// the whole universe in flight last, where it cannot disturb the order.
	at(low, 0)
	at(high, 2)
	at(low, 4)
	at(high, 6)
	all := NewBitSet(ix.Len())
	for i := 0; i < ix.Len(); i++ {
		all.Set(i)
	}
	at(all, 8)
	assertSamePeriods(t, "collision", p)
	got := ContentionPeriods(p)
	if len(got) != 3 || len(got[0]) != 1 || len(got[1]) != high.Count() {
		t.Fatalf("colliding sets were merged or split: %d periods", len(got))
	}
}

// FuzzContentionPeriods decodes the input as messages of six bytes each
// (src, dst, start, length, and two bytes that pick a quarter-unit offset or
// a non-finite time) and holds the sweep equal to the oracle.
func FuzzContentionPeriods(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 0, 0, 2, 3, 5, 4, 0, 0})
	f.Add([]byte{1, 1, 3, 0, 0, 0, 0, 2, 3, 0, 1, 0, 0, 2, 3, 2, 2, 0})
	f.Add([]byte{3, 4, 9, 1, 0, 7, 4, 3, 9, 1, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Pattern{Procs: 16}
		finite := true
		for ; len(data) >= 6; data = data[6:] {
			start := float64(data[2]) + float64(data[4]%4)/4
			finish := start + float64(data[3]%8)
			switch data[5] {
			case 7:
				finish = math.Inf(1)
			case 8:
				start, finite = math.NaN(), false
			}
			p.Messages = append(p.Messages, Message{
				ID: len(p.Messages), Src: int(data[0] % 16), Dst: int(data[1] % 16), Start: start, Finish: finish,
			})
		}
		if !finite {
			// NaN has no place on the timeline and the oracle's answer for
			// it depends on sort internals; the sweep must still return.
			ContentionPeriods(p)
			return
		}
		assertSamePeriods(t, "fuzz", p)
	})
}

// Key returns a canonical string key for map deduplication.
func (c Clique) Key() string {
	return string(c.appendKey(make([]byte, 0, 8*len(c))))
}

// appendKey appends the canonical key to dst without fmt.
func (c Clique) appendKey(dst []byte) []byte {
	for _, f := range c {
		dst = strconv.AppendInt(dst, int64(f.Src), 10)
		dst = append(dst, '>')
		dst = strconv.AppendInt(dst, int64(f.Dst), 10)
		dst = append(dst, ';')
	}
	return dst
}
