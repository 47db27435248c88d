package model

import "sort"

// The map-backed pair set: the original representation of C and R, kept in
// the test build as the oracle TestConflictMatrixMatchesPairSet holds
// ConflictMatrix and ContentionFreeBits to. Nothing outside this package's
// tests can reach it.

// MakeFlowPair canonicalizes the pair so that A ≤ B.
func MakeFlowPair(a, b Flow) FlowPair {
	if b.Less(a) {
		a, b = b, a
	}
	return FlowPair{A: a, B: b}
}

// PairSet is a set of unordered flow pairs, standing for both the potential
// communication contention set C (Definition 4) and the network resource
// conflict set R (Definition 7).
type PairSet map[FlowPair]struct{}

// NewPairSet returns an empty pair set.
func NewPairSet() PairSet { return make(PairSet) }

// Add inserts the unordered pair {a, b}.
func (s PairSet) Add(a, b Flow) { s[MakeFlowPair(a, b)] = struct{}{} }

// Has reports whether the unordered pair {a, b} is present.
func (s PairSet) Has(a, b Flow) bool {
	_, ok := s[MakeFlowPair(a, b)]
	return ok
}

// Len returns the number of pairs.
func (s PairSet) Len() int { return len(s) }

// Intersect returns the pairs present in both sets, sorted for determinism.
func (s PairSet) Intersect(t PairSet) []FlowPair {
	small, large := s, t
	if len(t) < len(s) {
		small, large = t, s
	}
	var out []FlowPair
	for p := range small {
		if _, ok := large[p]; ok {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A.Less(out[j].A)
		}
		return out[i].B.Less(out[j].B)
	})
	return out
}

// ContentionSetFromCliques expands a clique set into the pairwise contention
// set it induces. Self-pairs (a flow with itself) are excluded: the
// methodology treats repeated transmissions on one flow as the same
// communication.
func ContentionSetFromCliques(cliques []Clique) PairSet {
	s := NewPairSet()
	for _, c := range cliques {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				s.Add(c[i], c[j])
			}
		}
	}
	return s
}

// ContentionFree applies Theorem 1: the application mapped onto the network
// is contention-free if C ∩ R = ∅. It returns the (possibly empty) witness
// list of conflicting pairs; the mapping is contention-free iff the list is
// empty.
func ContentionFree(c, r PairSet) (bool, []FlowPair) {
	w := c.Intersect(r)
	return len(w) == 0, w
}
