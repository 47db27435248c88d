package model

import (
	"fmt"
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
// The index hashes nothing: it sorts the flows' packed keys (flowKey) and
// finds an ID by binary search over them, so a flow's ID is its key's rank.
type FlowIndex struct {
	flows []Flow
	keys  []uint64 // the flows' packed keys, ascending
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

// NewFlowIndex builds an index over the given flows (deduplicated and
// sorted; self-flows are excluded, matching Pattern.Flows). It panics on a
// flow with a node outside [0, 2^32): no valid pattern has one.
func NewFlowIndex(flows []Flow) *FlowIndex {
	keys := make([]uint64, 0, len(flows))
	for _, f := range flows {
		if f.Src == f.Dst {
			continue
		}
		k, ok := flowKey(f)
		if !ok {
			panic(fmt.Sprintf("model: flow %v has a node outside [0, 2^32)", f))
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	keys = slices.Clip(slices.Compact(keys))
	fs := make([]Flow, len(keys))
	for i, k := range keys {
		fs[i] = Flow{Src: Node(k >> 32), Dst: Node(uint32(k))}
	}
	return &FlowIndex{flows: fs, keys: keys}
}

// Len returns the number of interned flows.
func (ix *FlowIndex) Len() int { return len(ix.flows) }

// ID returns the dense ID of f and whether f is interned (0 if not).
func (ix *FlowIndex) ID(f Flow) (int, bool) {
	k, packs := flowKey(f)
	if !packs {
		return 0, false
	}
	id, ok := slices.BinarySearch(ix.keys, k)
	if !ok {
		return 0, false
	}
	return id, true
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
