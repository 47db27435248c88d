package model

import (
	"fmt"
	"sort"
)

// FlowIndex interns a pattern's flows into dense integer IDs so the
// contention kernel can run on BitSet arithmetic instead of map hashing.
// IDs are assigned in Flow.Less order, so ascending-ID iteration of any
// BitSet over the index enumerates flows in canonical sorted order.
//
// Interning contract: IDs are per-pattern. A FlowIndex built from one
// pattern's flow universe must never be used to interpret IDs or bitsets
// produced against another pattern's index.
type FlowIndex struct {
	flows []Flow
	id    map[Flow]int
}

// NewFlowIndex builds an index over the given flows (deduplicated and
// sorted; self-flows are excluded, matching Pattern.Flows).
func NewFlowIndex(flows []Flow) *FlowIndex {
	fs := make([]Flow, 0, len(flows))
	seen := make(map[Flow]bool, len(flows))
	for _, f := range flows {
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Less(fs[j]) })
	ix := &FlowIndex{flows: fs, id: make(map[Flow]int, len(fs))}
	for i, f := range fs {
		ix.id[f] = i
	}
	return ix
}

// Len returns the number of interned flows.
func (ix *FlowIndex) Len() int { return len(ix.flows) }

// ID returns the dense ID of f and whether f is interned.
func (ix *FlowIndex) ID(f Flow) (int, bool) {
	id, ok := ix.id[f]
	return id, ok
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
		if id, ok := ix.id[f]; ok {
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

// Index returns the FlowIndex the matrix is defined over.
func (m *ConflictMatrix) Index() *FlowIndex { return m.ix }

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
