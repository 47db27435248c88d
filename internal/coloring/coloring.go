// Package coloring solves the link-count problem of Section 3.1: the minimum
// number of links a pipe needs so that temporally conflicting communications
// ride separate links equals the chromatic number of the pipe's conflict
// graph (vertices: flows through the pipe in one direction; edges: pairs in
// the potential communication contention set C).
//
// Two functions serve synthesis, mirroring the paper:
//
//   - FastColorBits: the Appendix's Fast_Color — the maximum cardinality of
//     the intersection between any maximum clique and the pipe's flow set. A
//     cheap, close lower bound used throughout partitioning; on the dense
//     flow-ID representation it is one popcount-of-AND per clique.
//   - Color: formal colouring at finalization. DSATUR colours the direction,
//     and a greedily grown clique of the conflict graph certifies the colour
//     count minimal when it is as large. The clique is a proof anyone can
//     check from the design; a branch-and-bound search for the chromatic
//     number is kept in the test build as the oracle both are held to.
//
// The conflict graph stores adjacency as per-vertex bitmask rows
// (model.BitSet), so edge tests are bit probes and DSATUR's saturation
// tracking is word-wise.
package coloring

import (
	"sort"

	"repro/internal/model"
)

// conflictGraph is the conflict graph of one pipe direction. Vertices are
// the direction's flow IDs in ascending (= sorted flow) order.
type conflictGraph struct {
	// adj[i] is the bitmask row of vertices adjacent to i.
	adj []model.BitSet
	// degree caches vertex degrees.
	degree []int
}

// buildConflictGraph constructs the conflict graph for the member flows of a
// pipe direction, with an edge wherever the contention relation cm marks the
// pair as potentially colliding: members selects flow IDs over cm's
// FlowIndex.
func buildConflictGraph(members model.BitSet, cm *model.ConflictMatrix) *conflictGraph {
	ids := members.Elems(nil)
	n := len(ids)
	g := &conflictGraph{adj: make([]model.BitSet, n), degree: make([]int, n)}
	for i := range g.adj {
		g.adj[i] = model.NewBitSet(n)
	}
	for i := 0; i < n; i++ {
		row := cm.Row(ids[i])
		for j := i + 1; j < n; j++ {
			if row.Has(ids[j]) {
				g.adj[i].Set(j)
				g.adj[j].Set(i)
				g.degree[i]++
				g.degree[j]++
			}
		}
	}
	return g
}

// n returns the vertex count.
func (g *conflictGraph) n() int { return len(g.adj) }

// FastColorBits implements the Appendix's Fast_Color bound for a single
// direction: the maximum number of flows the set shares with any one clique,
// i.e. the maximum popcount of the AND between the pipe-direction flow set
// and any clique's membership bitset. Every such shared subset is mutually
// conflicting, hence a clique of the conflict graph, hence a lower bound on
// its chromatic number. A pipe needs the maximum over its two directions
// (Section 3.1: "the overall number of links required is equal to the
// maximum cardinality of the two sets of colors"). All bitsets must share
// one FlowIndex.
func FastColorBits(cliqueBits []model.BitSet, flows model.BitSet) int {
	best := 0
	for _, cb := range cliqueBits {
		if n := flows.AndCount(cb); n > best {
			best = n
		}
	}
	return best
}

// Color formally colours one pipe direction: members selects the
// direction's flow IDs over cm's FlowIndex. It returns the colour count k,
// each member's colour (in ascending ID order) and whether k is certified
// minimal, which holds when a greedily grown clique of the conflict graph has
// k vertices. An uncertified k is DSATUR's count, an upper bound that may
// exceed the chromatic number.
func Color(members model.BitSet, cm *model.ConflictMatrix) (k int, colors []int, certified bool) {
	g := buildConflictGraph(members, cm)
	k, colors = g.dsatur()
	return k, colors, g.maxCliqueLowerBound() >= k
}

// dsatur colours the graph with the DSATUR heuristic and returns the colour
// count and a per-vertex assignment.
func (g *conflictGraph) dsatur() (int, []int) {
	n := g.n()
	if n == 0 {
		return 0, nil
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	// sat[v] is the set of colors already on v's neighbors; satCount
	// caches its cardinality for the selection rule.
	satWords := (n + 63) / 64
	satAll := make(model.BitSet, n*satWords)
	sat := make([]model.BitSet, n)
	for i := range sat {
		sat[i] = satAll[i*satWords : (i+1)*satWords]
	}
	satCount := make([]int, n)
	colors := 0
	for done := 0; done < n; done++ {
		// Pick the uncolored vertex with max saturation, tie-break on
		// degree then index.
		best := -1
		for v := 0; v < n; v++ {
			if assign[v] != -1 {
				continue
			}
			if best == -1 ||
				satCount[v] > satCount[best] ||
				(satCount[v] == satCount[best] && g.degree[v] > g.degree[best]) {
				best = v
			}
		}
		c := 0
		for sat[best].Has(c) {
			c++
		}
		assign[best] = c
		if c+1 > colors {
			colors = c + 1
		}
		g.adj[best].ForEach(func(u int) {
			if !sat[u].Has(c) {
				sat[u].Set(c)
				satCount[u]++
			}
		})
	}
	return colors, assign
}

// maxCliqueLowerBound grows a clique greedily from each vertex in
// descending-degree order and returns the largest size found: a lower bound
// on the chromatic number.
func (g *conflictGraph) maxCliqueLowerBound() int {
	n := g.n()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.degree[order[a]] > g.degree[order[b]] })
	best := 0
	for _, start := range order {
		clique := []int{start}
		for _, v := range order {
			if v == start {
				continue
			}
			ok := true
			for _, u := range clique {
				if !g.adj[u].Has(v) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, v)
			}
		}
		if len(clique) > best {
			best = len(clique)
		}
		if best >= g.degree[start]+1 {
			break // no clique through later vertices can beat this
		}
	}
	return best
}
