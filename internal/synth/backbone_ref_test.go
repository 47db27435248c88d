package synth

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// bfsPath is the per-flow search shortestPaths replaced, kept as its oracle:
// the shortest path from a to b over adj (lowest-ID ties), from a search
// that copies and sorts each list it visits and stops on reaching b.
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

// shortestPathsMismatch runs shortestPaths on a copy of adj over every
// ordered pair of distinct nodes, in a shuffled order with repeats, and
// returns the first pair whose path differs from bfsPath's, or "".
func shortestPathsMismatch(adj [][]int, rng *rand.Rand) string {
	n := len(adj)
	var ends [][2]int
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			ends = append(ends, [2]int{a, b})
		}
	}
	for i := 0; i < n; i++ {
		ends = append(ends, ends[rng.Intn(len(ends))])
	}
	rng.Shuffle(len(ends), func(i, j int) { ends[i], ends[j] = ends[j], ends[i] })
	sorted := make([][]int, n)
	for v := range adj {
		sorted[v] = slices.Clone(adj[v])
	}
	paths := shortestPaths(sorted, ends)
	for i, e := range ends {
		var want []int
		if e[0] != e[1] {
			want = bfsPath(adj, e[0], e[1])
		}
		if !slices.Equal(paths[i], want) || len(paths[i]) != cap(paths[i]) {
			return fmt.Sprintf("path %d→%d: got %v (cap %d), bfsPath %v", e[0], e[1], paths[i], cap(paths[i]), want)
		}
	}
	return ""
}

// randomGraph returns a random graph on n nodes with unsorted adjacency
// lists: a random spanning tree when connected, plus each other pair with
// probability p.
func randomGraph(rng *rand.Rand, n int, p float64, connected bool) [][]int {
	adj := make([][]int, n)
	has := make(map[[2]int]bool)
	add := func(a, b int) {
		if a == b || has[[2]int{a, b}] {
			return
		}
		has[[2]int{a, b}], has[[2]int{b, a}] = true, true
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	perm := rng.Perm(n)
	if connected {
		for i := 1; i < n; i++ {
			add(perm[i], perm[rng.Intn(i)])
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				add(a, b)
			}
		}
	}
	for _, l := range adj {
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	}
	return adj
}

// TestShortestPathsMatchPerFlowBFS holds shortestPaths, one search per
// source, to the per-flow bfsPath it replaced on random graphs — connected
// ones, sparse to dense, and a few disconnected ones, where an unreachable
// pair's path is nil — and on the proposals of the what-if states
// (compareBackbone). The golden designs' switch graphs are checked by
// TestBackbonePathsGolden.
func TestShortestPathsMatchPerFlowBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		p := []float64{0, 0.05, 0.15, 0.4, 0.9}[trial%5]
		adj := randomGraph(rng, n, p, trial%10 != 9)
		if msg := shortestPathsMismatch(adj, rng); msg != "" {
			t.Fatalf("trial %d (%d nodes, p %.2f): %s", trial, n, p, msg)
		}
	}
}

// checkBackbonePaths holds a state's backbone proposal to the per-flow
// search over the same backbone: bfsPath for a flow between two switches,
// the cached one-switch route for a local one.
func checkBackbonePaths(t *testing.T, s *state, paths [][]int) {
	t.Helper()
	adj := s.backboneGraph()
	for fi, f := range s.flows {
		a, b := s.home[f.Src], s.home[f.Dst]
		want := s.cachedDirect(a, a)
		if a != b {
			want = bfsPath(adj, a, b)
		}
		if !slices.Equal(paths[fi], want) {
			t.Fatalf("backbone path of flow %v (%d→%d): got %v, bfsPath %v", f, a, b, paths[fi], want)
		}
	}
}
