package model

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// FlowIndex interns a pattern's flows into dense integer IDs so the
// contention kernel can run on BitSet arithmetic instead of map hashing.
// IDs are assigned in Flow.Less order, so ascending-ID iteration of any
// BitSet over the index enumerates flows in canonical sorted order.
//
// Interning contract: IDs are per-pattern. A FlowIndex built from one
// pattern's flow universe must never be used to interpret IDs or bitsets
// produced against another pattern's index.
//
// A flow's ID is the rank of its packed key (flowKey). The keys live in a
// keySet whose slots hold, once ranked, each key's ID, so ID is one hash
// probe.
type FlowIndex struct {
	flows []Flow
	set   keySet // the flows' keys, ranked
}

// flowKey packs f into one word, Src above Dst, so that key order is
// Flow.Less order. ok is false when a node falls outside [0, 2^32), which no
// valid pattern has: Validate bounds Procs by 2^32.
func flowKey(f Flow) (key uint64, ok bool) {
	if uint64(f.Src)|uint64(f.Dst) >= 1<<32 {
		return 0, false
	}
	return uint64(f.Src)<<32 | uint64(f.Dst), true
}

// mustKey is flowKey for a flow that must pack. It panics on one that does
// not: no valid pattern has such a flow.
func mustKey(f Flow) uint64 {
	k, ok := flowKey(f)
	if !ok {
		panic(fmt.Sprintf("model: flow %v has a node outside [0, 2^32)", f))
	}
	return k
}

// NewFlowIndex builds an index over the given flows (deduplicated and
// sorted; self-flows are excluded, matching Pattern.Flows). It panics on a
// flow with a node outside [0, 2^32): no valid pattern has one.
func NewFlowIndex(flows []Flow) *FlowIndex {
	var s keySet
	for _, f := range flows {
		if f.Src != f.Dst {
			s.add(mustKey(f))
		}
	}
	s.rank()
	return &FlowIndex{flows: s.sortedFlows(), set: s}
}

// internMessages interns the flows of p's messages: the distinct flows in
// ID order, and each message's flow ID, -1 for a self-flow. Every message is
// hashed once; only the distinct flows are sorted. It panics on a flow with
// a node outside [0, 2^32), as NewFlowIndex does.
func internMessages(p *Pattern) (flows []Flow, ids []int32) {
	var s keySet
	ids = make([]int32, len(p.Messages))
	for i, m := range p.Messages {
		ids[i] = -1
		if m.Src != m.Dst {
			ids[i] = s.add(mustKey(m.Flow()))
		}
	}
	rank := s.rank()
	for i, at := range ids {
		if at >= 0 {
			ids[i] = rank[at]
		}
	}
	return s.sortedFlows(), ids
}

// keySet collects distinct flow keys: an open-addressed table with linear
// probing, sized by the distinct keys it holds rather than by how often
// they repeat, so interning a pattern's messages sorts its flows, not its
// messages. A slot holds ^key, 0 when empty: ^key is 0 only for the
// self-flow of node 2^32−1, which no caller adds.
type keySet struct {
	slots []uint64
	// at holds, for each full slot, its key's position in keys, and once
	// rank has run, the key's rank.
	at    []int32
	shift uint     // 64 − log2(len(slots)): a key's home slot is the top bits of key·hashMul
	keys  []uint64 // the distinct keys, in order of first add until sortedFlows sorts them
}

// keySetMinSlots is a keySet's first table size: room for 32 keys at its
// load limit of one half.
const keySetMinSlots = 64

// add puts k in the set and returns its position in keys.
func (s *keySet) add(k uint64) int32 {
	if 2*len(s.keys) >= len(s.slots) {
		s.grow()
	}
	i := s.slot(k)
	if s.slots[i] == 0 {
		s.slots[i] = ^k
		s.at[i] = int32(len(s.keys))
		s.keys = append(s.keys, k)
	}
	return s.at[i]
}

// slot returns the slot holding k, or the empty slot where k would go.
func (s *keySet) slot(k uint64) int {
	mask := len(s.slots) - 1
	i := int((k * hashMul) >> s.shift)
	for s.slots[i] != 0 && s.slots[i] != ^k {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table (or makes the first one), re-inserts the keys, and
// makes room in keys for every key the new table takes before it grows.
func (s *keySet) grow() {
	n := max(2*len(s.slots), keySetMinSlots)
	s.slots, s.at = make([]uint64, n), make([]int32, n)
	s.keys = slices.Grow(s.keys, n/2-len(s.keys))
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for j, k := range s.keys {
		i := s.slot(k)
		s.slots[i], s.at[i] = ^k, int32(j)
	}
}

// rank gives each key its rank among the keys, which is its flow's ID: the
// result maps a key's position in keys to its rank, and each slot's at is
// rewritten from the position to the rank. It must run before sortedFlows.
func (s *keySet) rank() []int32 {
	order := make([]int32, len(s.keys))
	for j := range order {
		order[j] = int32(j)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(s.keys[a], s.keys[b]) })
	rank := make([]int32, len(order))
	for id, j := range order {
		rank[j] = int32(id)
	}
	for i, k := range s.slots {
		if k != 0 {
			s.at[i] = rank[s.at[i]]
		}
	}
	return rank
}

// sortedFlows sorts the keys, which is Flow.Less order, and returns their
// flows.
func (s *keySet) sortedFlows() []Flow {
	slices.Sort(s.keys)
	flows := make([]Flow, len(s.keys))
	for i, k := range s.keys {
		flows[i] = Flow{Src: Node(k >> 32), Dst: Node(uint32(k))}
	}
	return flows
}

// Len returns the number of interned flows.
func (ix *FlowIndex) Len() int { return len(ix.flows) }

// ID returns the dense ID of f and whether f is interned (0 if not).
func (ix *FlowIndex) ID(f Flow) (int, bool) {
	k, packs := flowKey(f)
	if !packs || len(ix.set.slots) == 0 {
		return 0, false
	}
	i := ix.set.slot(k)
	if ix.set.slots[i] == 0 {
		return 0, false
	}
	return int(ix.set.at[i]), true
}

// Flow returns the flow with the given ID.
func (ix *FlowIndex) Flow(id int) Flow { return ix.flows[id] }

// Flows returns the interned flows in ID (= sorted) order. The returned
// slice is shared; callers must not mutate it.
func (ix *FlowIndex) Flows() []Flow { return ix.flows }

// Bits returns the BitSet of IDs for the given flows. Flows not interned
// (including self-flows) are ignored.
func (ix *FlowIndex) Bits(flows []Flow) BitSet {
	b := NewBitSet(len(ix.flows))
	for _, f := range flows {
		if id, ok := ix.ID(f); ok {
			b.Set(id)
		}
	}
	return b
}

// CliqueBits converts each clique to its membership BitSet over the index.
func (ix *FlowIndex) CliqueBits(cliques []Clique) []BitSet {
	out := make([]BitSet, len(cliques))
	for i, c := range cliques {
		out[i] = ix.Bits(c)
	}
	return out
}

// FlowPair is an unordered pair of flows in canonical order (A ≤ B). It is
// the 4-tuple (s1,d1,s2,d2) of Definitions 4 and 7 with the symmetric
// redundancy removed.
type FlowPair struct {
	A, B Flow
}

func (p FlowPair) String() string { return fmt.Sprintf("{%v,%v}", p.A, p.B) }

// ConflictMatrix is a pairwise flow relation stored as one conflict BitSet
// row per flow ID: Has(i, j) is a single bit test. It represents both the
// potential communication contention set C (Definition 4) and the network
// resource conflict set R (Definition 7). The diagonal is always clear — a
// flow does not conflict with itself: the methodology treats repeated
// transmissions on one flow as the same communication.
type ConflictMatrix struct {
	ix   *FlowIndex
	rows []BitSet
}

// NewConflictMatrix returns an empty relation over the index's flows.
func NewConflictMatrix(ix *FlowIndex) *ConflictMatrix {
	rows := make([]BitSet, ix.Len())
	for i := range rows {
		rows[i] = NewBitSet(ix.Len())
	}
	return &ConflictMatrix{ix: ix, rows: rows}
}

// Row returns flow i's conflict row. The row is shared; callers must not
// mutate it.
func (m *ConflictMatrix) Row(i int) BitSet { return m.rows[i] }

// Has reports whether flows i and j conflict.
func (m *ConflictMatrix) Has(i, j int) bool { return m.rows[i].Has(j) }

// Add marks flows i and j (i != j) as conflicting.
func (m *ConflictMatrix) Add(i, j int) {
	if i == j {
		return
	}
	m.rows[i].Set(j)
	m.rows[j].Set(i)
}

// AddClique marks every pair of the member set as conflicting.
func (m *ConflictMatrix) AddClique(members BitSet) {
	members.ForEach(func(i int) {
		m.rows[i].Or(members)
		m.rows[i].Clear(i)
	})
}

// Len counts the unordered conflicting pairs.
func (m *ConflictMatrix) Len() int {
	total := 0
	for _, r := range m.rows {
		total += r.Count()
	}
	return total / 2
}

// ConflictMatrixFromCliques builds the contention relation C from a clique
// set: every unordered pair of distinct flows that share a clique, i.e. are
// simultaneously in flight at some instant.
func ConflictMatrixFromCliques(ix *FlowIndex, cliques []Clique) *ConflictMatrix {
	m := NewConflictMatrix(ix)
	for _, c := range cliques {
		m.AddClique(ix.Bits(c))
	}
	return m
}

// Intersect returns the unordered pairs present in both relations, sorted
// by (A, B), because IDs ascend in Flow.Less order. Both relations must be
// defined over the same FlowIndex.
func (m *ConflictMatrix) Intersect(o *ConflictMatrix) []FlowPair {
	var out []FlowPair
	n := len(m.rows)
	if len(o.rows) < n {
		n = len(o.rows)
	}
	for i := 0; i < n; i++ {
		mi, oi := m.rows[i], o.rows[i]
		w := len(mi)
		if len(oi) < w {
			w = len(oi)
		}
		for wi := 0; wi < w; wi++ {
			both := BitSet{mi[wi] & oi[wi]}
			both.ForEach(func(b int) {
				j := wi<<6 + b
				if j > i {
					out = append(out, FlowPair{A: m.ix.Flow(i), B: m.ix.Flow(j)})
				}
			})
		}
	}
	return out
}

// ContentionFreeBits applies Theorem 1: the application mapped onto the
// network is contention-free iff C ∩ R = ∅. It returns the (possibly empty)
// witness list of conflicting pairs.
func ContentionFreeBits(c, r *ConflictMatrix) (bool, []FlowPair) {
	w := c.Intersect(r)
	return len(w) == 0, w
}
