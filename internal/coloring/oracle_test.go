package coloring

import (
	"sort"
	"testing"

	"repro/internal/model"
)

// chromatic is the optimality oracle Color is held to: the chromatic number
// of g and an optimal colouring, by branch-and-bound with iterative
// deepening from the greedy clique bound up to DSATUR's count. Vertices are
// tried in descending-degree order, and a vertex may open only the next
// unused colour, which breaks colour symmetry. It has no node budget: the
// graphs it sees have at most a few dozen vertices.
func (g *conflictGraph) chromatic() (int, []int) {
	n := g.n()
	ub, best := g.dsatur()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.degree[order[a]] > g.degree[order[b]] })
	for k := g.maxCliqueLowerBound(); k < ub; k++ {
		assign := make([]int, n)
		// classes[c] is the set of vertices holding colour c, so a colour
		// is feasible for v when v's row misses its class.
		classes := make([]model.BitSet, k)
		for c := range classes {
			classes[c] = model.NewBitSet(n)
		}
		if g.tryColor(order, assign, classes, 0, 0) {
			return k, assign
		}
	}
	return ub, best
}

// tryColor colours order[pos:] with the colours of classes, used of which
// are already in use.
func (g *conflictGraph) tryColor(order, assign []int, classes []model.BitSet, pos, used int) bool {
	if pos == len(order) {
		return true
	}
	v := order[pos]
	for c := 0; c < len(classes) && c <= used; c++ {
		if g.adj[v].AndCount(classes[c]) > 0 {
			continue
		}
		assign[v] = c
		classes[c].Set(v)
		if g.tryColor(order, assign, classes, pos+1, max(used, c+1)) {
			return true
		}
		classes[c].Clear(v)
	}
	return false
}

// FuzzCertifiedColoring decodes bytes into at most 14 flows, a few cliques
// over them and one pipe direction's subset, and holds Color to the oracle:
// the colouring is proper, max(Fast_Color, clique) ≤ χ ≤ k, a certified k is
// χ, and the clique bound never exceeds k.
//
// Byte 0 picks the flow count, byte 1 the clique count (up to six), then
// each clique and the pipe take two bytes of membership mask each; missing
// bytes read as zero.
func FuzzCertifiedColoring(f *testing.F) {
	f.Add([]byte{13, 3, 0xff, 0x0f, 0xf0, 0xff, 0x3c, 0x3c, 0xff, 0xff})
	f.Add([]byte{4, 0, 0x0f, 0x00, 0x0f, 0x00})
	// C5 as five two-flow cliques: optimal but uncertified.
	f.Add([]byte{4, 4, 0x03, 0, 0x06, 0, 0x0c, 0, 0x18, 0, 0x11, 0, 0x1f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		mask := func(i int) int { return at(i) | at(i+1)<<8 }
		subset := func(fs []model.Flow, m int) []model.Flow {
			var out []model.Flow
			for i, fl := range fs {
				if m&(1<<i) != 0 {
					out = append(out, fl)
				}
			}
			return out
		}
		universe := flowsN(1 + at(0)%14)
		nc := 1 + at(1)%6
		cliques := make([]model.Clique, nc)
		for c := range cliques {
			cliques[c] = model.NewClique(subset(universe, mask(2+2*c))...)
		}
		ix := model.NewFlowIndex(universe)
		pipe := ix.Bits(subset(universe, mask(2+2*nc)))
		cm := model.ConflictMatrixFromCliques(ix, cliques)

		k, colors, certified := Color(pipe, cm)
		g := buildConflictGraph(pipe, cm)
		checkProper(t, g, k, colors)
		chi, _ := g.chromatic()
		fast := FastColorBits(ix.CliqueBits(cliques), pipe)
		clique := g.maxCliqueLowerBound()
		if max(fast, clique) > chi || chi > k {
			t.Fatalf("bounds out of order: Fast_Color %d, clique %d, χ %d, k %d", fast, clique, chi, k)
		}
		if certified && k != chi {
			t.Fatalf("certified k %d, but χ is %d", k, chi)
		}
		if clique > k {
			t.Fatalf("clique bound %d exceeds k %d", clique, k)
		}
		if certified != (clique >= k) {
			t.Fatalf("certified %v with clique %d and k %d", certified, clique, k)
		}
	})
}
