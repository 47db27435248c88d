// Package coloring solves the link-count problem of Section 3.1: the minimum
// number of links a pipe needs so that temporally conflicting communications
// ride separate links equals the chromatic number of the pipe's conflict
// graph (vertices: flows through the pipe in one direction; edges: pairs in
// the potential communication contention set C).
//
// Three solvers are provided, mirroring the paper:
//
//   - FastColorBits: the Appendix's Fast_Color — the maximum cardinality of
//     the intersection between any maximum clique and the pipe's flow set. A
//     cheap, close lower bound used throughout partitioning; on the dense
//     flow-ID representation it is one popcount-of-AND per clique.
//   - Greedy: DSATUR, a fast upper bound.
//   - Exact: branch-and-bound chromatic coloring used at finalization
//     ("formal coloring"), with a node budget that falls back to DSATUR on
//     pathological instances.
//
// The conflict graph stores adjacency as per-vertex bitmask rows
// (model.BitSet), so edge tests are bit probes and both DSATUR's saturation
// tracking and the branch-and-bound feasibility checks are word-wise
// operations instead of map lookups.
package coloring

import (
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
)

// Stats counts solver invocations so callers can account DSATUR versus
// branch-and-bound effort. Counting rides in plain struct fields (rather
// than an Observer threaded into every solver call) because synthesis runs
// speculative extension restarts whose solver work must not leak into the
// deterministic counter section of a report; callers merge the Stats of the
// restarts they actually fold and emit once (see synth.Synthesize).
type Stats struct {
	// DSATUR counts greedy colorings, including the upper-bound pass
	// every exact coloring starts with.
	DSATUR int
	// BranchAndBound counts exact searches that went past the trivial
	// lb >= ub proof into the branch-and-bound loop.
	BranchAndBound int
	// Fallbacks counts branch-and-bound searches that exhausted
	// ExactBudget and fell back to the DSATUR coloring.
	Fallbacks int
}

// Add merges t into s.
func (s *Stats) Add(t Stats) {
	s.DSATUR += t.DSATUR
	s.BranchAndBound += t.BranchAndBound
	s.Fallbacks += t.Fallbacks
}

// Emit publishes the counts under the coloring.* counter names.
func (s Stats) Emit(o obs.Observer) {
	obs.Count(o, "coloring.dsatur", int64(s.DSATUR))
	obs.Count(o, "coloring.branch_and_bound", int64(s.BranchAndBound))
	obs.Count(o, "coloring.fallbacks", int64(s.Fallbacks))
}

// bump helpers tolerate a nil Stats so the uncounted entry points share the
// counted implementations.
func (s *Stats) dsatur() {
	if s != nil {
		s.DSATUR++
	}
}
func (s *Stats) branchAndBound() {
	if s != nil {
		s.BranchAndBound++
	}
}
func (s *Stats) fallback() {
	if s != nil {
		s.Fallbacks++
	}
}

// ConflictGraph is the conflict graph of one pipe direction.
type ConflictGraph struct {
	// Flows are the vertices, in sorted order.
	Flows []model.Flow
	// adj[i] is the bitmask row of vertices adjacent to i.
	adj []model.BitSet
	// degree caches vertex degrees.
	degree []int
}

// newGraph allocates an edgeless graph over the sorted vertex set.
func newGraph(fs []model.Flow) *ConflictGraph {
	g := &ConflictGraph{
		Flows:  fs,
		adj:    make([]model.BitSet, len(fs)),
		degree: make([]int, len(fs)),
	}
	for i := range g.adj {
		g.adj[i] = model.NewBitSet(len(fs))
	}
	return g
}

func (g *ConflictGraph) addEdge(i, j int) {
	g.adj[i].Set(j)
	g.adj[j].Set(i)
	g.degree[i]++
	g.degree[j]++
}

// BuildConflictGraphBits constructs the conflict graph for the member flows
// of a pipe direction, with an edge wherever the contention relation cm
// marks the pair as potentially colliding: members selects flow IDs over
// cm's FlowIndex. Vertices come out in sorted flow order because IDs ascend
// in Flow.Less order.
func BuildConflictGraphBits(members model.BitSet, cm *model.ConflictMatrix) *ConflictGraph {
	ids := members.Elems(nil)
	fs := make([]model.Flow, len(ids))
	for i, id := range ids {
		fs[i] = cm.Index().Flow(id)
	}
	g := newGraph(fs)
	for i := 0; i < len(ids); i++ {
		row := cm.Row(ids[i])
		for j := i + 1; j < len(ids); j++ {
			if row.Has(ids[j]) {
				g.addEdge(i, j)
			}
		}
	}
	return g
}

// N returns the vertex count.
func (g *ConflictGraph) N() int { return len(g.Flows) }

// Edge reports whether vertices i and j conflict.
func (g *ConflictGraph) Edge(i, j int) bool { return g.adj[i].Has(j) }

// Edges counts the graph's edges.
func (g *ConflictGraph) Edges() int {
	e := 0
	for _, d := range g.degree {
		e += d
	}
	return e / 2
}

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

// Greedy colors the graph with the DSATUR heuristic and returns the color
// count and a per-vertex assignment (parallel to g.Flows).
func (g *ConflictGraph) Greedy() (int, []int) {
	n := g.N()
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

// maxCliqueLowerBound finds a large clique greedily (by degree order) as a
// lower bound for exact coloring.
func (g *ConflictGraph) maxCliqueLowerBound() int {
	n := g.N()
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

// ExactBudget bounds the branch-and-bound search; beyond it Exact falls back
// to the greedy result. Pipe conflict graphs in this domain have at most a
// few dozen vertices, far below the budget in practice.
const ExactBudget = 2_000_000

// Exact computes the chromatic number and an optimal assignment by
// branch-and-bound (iterative deepening between the clique lower bound and
// the DSATUR upper bound), recording solver effort into st (which may be
// nil). The boolean result reports whether the answer is provably optimal;
// on budget exhaustion the greedy coloring is returned with false.
func (g *ConflictGraph) Exact(st *Stats) (int, []int, bool) {
	n := g.N()
	if n == 0 {
		return 0, nil, true
	}
	st.dsatur()
	ub, greedyAssign := g.Greedy()
	lb := g.maxCliqueLowerBound()
	if lb >= ub {
		return ub, greedyAssign, true
	}
	st.branchAndBound()
	// Order vertices by descending degree for effective pruning.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.degree[order[a]] > g.degree[order[b]] })

	budget := ExactBudget
	for k := lb; k < ub; k++ {
		assign := make([]int, n)
		for i := range assign {
			assign[i] = -1
		}
		// colorVerts[c] is the set of vertices currently holding color c,
		// so feasibility is one word-wise intersection test per color.
		colorVerts := make([]model.BitSet, k)
		for c := range colorVerts {
			colorVerts[c] = model.NewBitSet(n)
		}
		if ok, exhausted := g.tryColor(order, assign, colorVerts, 0, k, 0, &budget); ok {
			return k, assign, true
		} else if exhausted {
			st.fallback()
			return ub, greedyAssign, false
		}
	}
	return ub, greedyAssign, true
}

// tryColor attempts to color vertices order[pos:] with at most k colors,
// where maxUsed colors are already in use. Symmetry is broken by allowing a
// new color only as color maxUsed.
func (g *ConflictGraph) tryColor(order, assign []int, colorVerts []model.BitSet, pos, k, maxUsed int, budget *int) (ok, exhausted bool) {
	if pos == len(order) {
		return true, false
	}
	if *budget <= 0 {
		return false, true
	}
	*budget--
	v := order[pos]
	limit := maxUsed + 1
	if limit > k {
		limit = k
	}
	for c := 0; c < limit; c++ {
		if g.adj[v].Intersects(colorVerts[c]) {
			continue
		}
		assign[v] = c
		colorVerts[c].Set(v)
		nextMax := maxUsed
		if c == maxUsed {
			nextMax++
		}
		if done, exh := g.tryColor(order, assign, colorVerts, pos+1, k, nextMax, budget); done {
			return true, false
		} else if exh {
			assign[v] = -1
			colorVerts[c].Clear(v)
			return false, true
		}
		assign[v] = -1
		colorVerts[c].Clear(v)
	}
	return false, false
}

// Assignment maps flows to their assigned color (link index).
type Assignment map[model.Flow]int

// ColorPipeDirectionBits exactly colors one direction's conflict graph and
// returns the color count and flow→color assignment: members selects the
// direction's flow IDs over cm's FlowIndex.
func ColorPipeDirectionBits(members model.BitSet, cm *model.ConflictMatrix) (int, Assignment, bool) {
	g := BuildConflictGraphBits(members, cm)
	k, assign, exact := g.Exact(nil)
	out := make(Assignment, len(g.Flows))
	for i, f := range g.Flows {
		out[f] = assign[i]
	}
	return k, out, exact
}
