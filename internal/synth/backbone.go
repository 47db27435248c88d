package synth

import (
	"slices"
	"sort"
)

// backboneReroute is a restructuring move used when marginal optimization is
// plateau-locked on degree violations: it proposes an entirely new routing
// over a degree-budgeted backbone graph (backboneProposal) and commits it only
// if the global objective (violations, links, load, hops) strictly improves.
// The proposal is priced like every other reroute, by the what-if evaluator
// (wiBackbone), so nothing is applied unless it wins.
func (s *state) backboneReroute() bool {
	paths := s.backboneProposal()
	if paths == nil || s.wiBackbone(paths, 0) >= 0 {
		return false
	}
	for fi, path := range paths {
		s.setRoute(fi, path)
	}
	s.stats.Reroutes += len(s.flows)
	return true
}

// backboneProposal returns every flow's route, by flow ID, over the backbone
// backboneGraph chooses, or nil when there is none. Each route is a backbone
// shortest path (which may be longer than the one-intermediate routes the
// local optimizer produces — the final topology supports arbitrary source
// routes).
func (s *state) backboneProposal() [][]int {
	adj := s.backboneGraph()
	if adj == nil {
		return nil
	}
	// The backbone is connected, so every flow has a path.
	ends := make([][2]int, len(s.flows))
	for fi, f := range s.flows {
		ends[fi] = [2]int{s.home[f.Src], s.home[f.Dst]}
	}
	paths := shortestPaths(adj, ends)
	for fi, e := range ends {
		if e[0] == e[1] {
			paths[fi] = s.cachedDirect(e[0], e[0])
		}
	}
	return paths
}

// backboneGraph returns the adjacency lists of a connected backbone over the
// switches, chosen greedily by direct-traffic demand, or nil when there is
// none (fewer than three switches, or components that cannot be joined):
// each switch may spend MaxDegree minus its processor count on links, the
// heaviest demand pairs claim edges first, and remaining components are
// joined by the cheapest feasible edges.
func (s *state) backboneGraph() [][]int {
	n := len(s.swProcs)
	if n < 3 {
		return nil
	}
	budget := make([]int, n)
	for sw := range s.swProcs {
		b := s.opt.MaxDegree - len(s.swProcs[sw])
		if b < 0 {
			b = 0
		}
		budget[sw] = b
	}
	// Direct demand between home pairs.
	demand := make(map[[2]int]int)
	for _, f := range s.flows {
		a, b := s.home[f.Src], s.home[f.Dst]
		if a != b {
			demand[pairKey(a, b)]++
		}
	}
	type edge struct {
		pair [2]int
		w    int
	}
	edges := make([]edge, 0, len(demand))
	for p, w := range demand {
		edges = append(edges, edge{pair: p, w: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		return edges[i].pair[0] < edges[j].pair[0] ||
			(edges[i].pair[0] == edges[j].pair[0] && edges[i].pair[1] < edges[j].pair[1])
	})
	deg := make([]int, n)
	adj := make([][]int, n)
	addEdge := func(a, b int) {
		deg[a]++
		deg[b]++
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	haveEdge := func(a, b int) bool {
		for _, x := range adj[a] {
			if x == b {
				return true
			}
		}
		return false
	}
	for _, e := range edges {
		a, b := e.pair[0], e.pair[1]
		if deg[a] < budget[a] && deg[b] < budget[b] {
			addEdge(a, b)
		}
	}
	// Join remaining components, preferring endpoints with spare budget.
	for {
		comp := components(adj, n)
		if maxComp(comp) == 0 {
			break
		}
		bestA, bestB, bestCost := -1, -1, 1<<30
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if comp[a] == comp[b] || haveEdge(a, b) {
					continue
				}
				cost := 0
				if deg[a] >= budget[a] {
					cost += 1 + deg[a] - budget[a]
				}
				if deg[b] >= budget[b] {
					cost += 1 + deg[b] - budget[b]
				}
				if cost < bestCost {
					bestA, bestB, bestCost = a, b, cost
				}
			}
		}
		if bestA == -1 {
			return nil // cannot connect; abandon the proposal
		}
		addEdge(bestA, bestB)
	}

	return adj
}

// wiBackbone prices installing paths, one route per flow, bound as
// wiDeltaCand. It is a family of one: every flow leaves its route as the
// base, and each path joins as the candidate. With every route a simple
// path, the price is exactly the change of globalCost.
func (s *state) wiBackbone(paths [][]int, bound int) int {
	for fi := range paths {
		s.wiLeave(fi)
	}
	s.wiFreeze(-1)
	for fi, path := range paths {
		for i := 1; i < len(path); i++ {
			s.wiJoinCand(fi, path[i-1], path[i])
		}
	}
	d := s.wiDeltaCand(-1, bound)
	s.wiRelease()
	return d
}

func components(adj [][]int, n int) []int {
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for start := 0; start < n; start++ {
		if comp[start] != -1 {
			continue
		}
		stack := []int{start}
		comp[start] = nc
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v] {
				if comp[u] == -1 {
					comp[u] = nc
					stack = append(stack, u)
				}
			}
		}
		nc++
	}
	return comp
}

func maxComp(comp []int) int {
	m := 0
	for _, c := range comp {
		if c > m {
			m = c
		}
	}
	return m
}

// shortestPaths returns, for each pair (a, b) of ends with a ≠ b, the
// shortest path from a to b over adj that a breadth-first search from a
// visiting neighbours in ascending ID order finds (lowest-ID ties), or nil if
// b is unreachable; a pair with a = b gets nil. It sorts adj's lists in place
// and runs one search per distinct source, reading each of its pairs' paths
// off the search's parent tree: the order the search visits switches in
// depends only on the source and the sorted lists, and a search stopped on
// reaching b would have set every parent on b's chain already. The paths
// share one backing array, each capped at its length.
func shortestPaths(adj [][]int, ends [][2]int) [][]int {
	n := len(adj)
	for _, nbs := range adj {
		sort.Ints(nbs)
	}
	// Bucket the pairs by source (a counting sort), so each source's search
	// runs once.
	first := make([]int, n+1)
	for _, e := range ends {
		first[e[0]+1]++
	}
	for a := 0; a < n; a++ {
		first[a+1] += first[a]
	}
	bySrc := make([]int, len(ends))
	fill := append([]int(nil), first[:n]...)
	for i, e := range ends {
		bySrc[fill[e[0]]] = i
		fill[e[0]]++
	}
	paths := make([][]int, len(ends))
	parent := fill // reused: the buckets are filled
	queue := make([]int, 0, n)
	var arena []int
	for a := 0; a < n; a++ {
		searched := false
		for _, i := range bySrc[first[a]:first[a+1]] {
			b := ends[i][1]
			if b == a {
				continue
			}
			if !searched {
				searched = true
				for v := range parent {
					parent[v] = -1
				}
				parent[a] = a
				queue = append(queue[:0], a)
				for h := 0; h < len(queue); h++ {
					v := queue[h]
					for _, u := range adj[v] {
						if parent[u] == -1 {
							parent[u] = v
							queue = append(queue, u)
						}
					}
				}
			}
			if parent[b] == -1 {
				continue
			}
			hops := 0
			for v := b; v != a; v = parent[v] {
				hops++
			}
			at := len(arena)
			arena = slices.Grow(arena, hops+1)[:at+hops+1]
			path := arena[at : at+hops+1 : at+hops+1]
			for v, j := b, hops; j >= 0; v, j = parent[v], j-1 {
				path[j] = v
			}
			paths[i] = path
		}
	}
	return paths
}
