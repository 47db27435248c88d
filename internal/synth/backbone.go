package synth

import "sort"

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

// backboneProposal returns every flow's route, by flow ID, over a backbone
// chosen greedily by direct-traffic demand, or nil when there is none (fewer
// than three switches, or components that cannot be joined): each switch may
// spend MaxDegree minus its processor count on links, the heaviest demand
// pairs claim edges first, and remaining components are joined by the
// cheapest feasible edges. Each route is a backbone shortest path (which may
// be longer than the one-intermediate routes the local optimizer produces —
// the final topology supports arbitrary source routes).
func (s *state) backboneProposal() [][]int {
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

	// The backbone is connected now, so every flow has a path.
	paths := make([][]int, len(s.flows))
	for fi, f := range s.flows {
		a, b := s.home[f.Src], s.home[f.Dst]
		if a == b {
			paths[fi] = s.cachedDirect(a, a)
		} else {
			paths[fi] = bfsPath(adj, a, b)
		}
	}
	return paths
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

// bfsPath returns the shortest path from a to b over adj (lowest-ID ties).
func bfsPath(adj [][]int, a, b int) []int {
	n := len(adj)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == b {
			break
		}
		nbs := append([]int(nil), adj[v]...)
		sort.Ints(nbs)
		for _, u := range nbs {
			if parent[u] == -1 {
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	if parent[b] == -1 {
		return nil
	}
	var rev []int
	for v := b; v != a; v = parent[v] {
		rev = append(rev, v)
	}
	rev = append(rev, a)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
