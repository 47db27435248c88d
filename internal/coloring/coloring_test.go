package coloring

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// flowsN builds n distinct flows (i, i+100).
func flowsN(n int) []model.Flow {
	fs := make([]model.Flow, n)
	for i := range fs {
		fs[i] = model.F(i, i+100)
	}
	return fs
}

// edges is a test-side list of conflicting flow pairs.
type edges [][2]model.Flow

func (e *edges) Add(a, b model.Flow) { *e = append(*e, [2]model.Flow{a, b}) }

// contention builds the relation C over fs that marks exactly the listed
// pairs.
func contention(fs []model.Flow, c edges) *model.ConflictMatrix {
	ix := model.NewFlowIndex(fs)
	cm := model.NewConflictMatrix(ix)
	for _, p := range c {
		i, _ := ix.ID(p[0])
		j, _ := ix.ID(p[1])
		cm.Add(i, j)
	}
	return cm
}

// graph builds the conflict graph with vertices fs and the listed edges.
func graph(fs []model.Flow, c edges) *ConflictGraph {
	cm := contention(fs, c)
	return BuildConflictGraphBits(cm.Index().Bits(fs), cm)
}

func fullContention(fs []model.Flow) edges {
	var c edges
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			c.Add(fs[i], fs[j])
		}
	}
	return c
}

func TestBuildConflictGraph(t *testing.T) {
	fs := flowsN(4)
	var c edges
	c.Add(fs[0], fs[1])
	c.Add(fs[2], fs[3])
	g := graph(fs, c)
	if g.N() != 4 || g.Edges() != 2 {
		t.Fatalf("graph: n=%d e=%d", g.N(), g.Edges())
	}
	// Vertices are sorted; find indices by flow.
	idx := map[model.Flow]int{}
	for i, f := range g.Flows {
		idx[f] = i
	}
	if !g.Edge(idx[fs[0]], idx[fs[1]]) || g.Edge(idx[fs[0]], idx[fs[2]]) {
		t.Fatal("wrong adjacency")
	}
}

func TestGreedyOnCompleteGraph(t *testing.T) {
	fs := flowsN(5)
	g := graph(fs, fullContention(fs))
	k, assign := g.Greedy()
	if k != 5 {
		t.Fatalf("K5 greedy colors = %d, want 5", k)
	}
	checkProper(t, g, assign)
}

func TestGreedyOnEmptyGraph(t *testing.T) {
	fs := flowsN(6)
	g := graph(fs, nil)
	k, assign := g.Greedy()
	if k != 1 {
		t.Fatalf("edgeless graph colors = %d, want 1", k)
	}
	checkProper(t, g, assign)
}

func TestGreedyZeroVertices(t *testing.T) {
	g := graph(nil, nil)
	if k, _ := g.Greedy(); k != 0 {
		t.Fatalf("empty graph colors = %d", k)
	}
	if k, _, exact := g.Exact(nil); k != 0 || !exact {
		t.Fatalf("empty graph exact = %d", k)
	}
}

func TestExactOddCycle(t *testing.T) {
	// C5 needs 3 colors; DSATUR may also find 3, but exact must prove it.
	fs := flowsN(5)
	var c edges
	for i := 0; i < 5; i++ {
		c.Add(fs[i], fs[(i+1)%5])
	}
	g := graph(fs, c)
	k, assign, exact := g.Exact(nil)
	if k != 3 || !exact {
		t.Fatalf("C5 chromatic = %d (exact=%v), want 3", k, exact)
	}
	checkProper(t, g, assign)
}

func TestExactBipartite(t *testing.T) {
	// K3,3 is 2-chromatic; greedy may or may not see it, exact must.
	fs := flowsN(6)
	var c edges
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			c.Add(fs[i], fs[j])
		}
	}
	g := graph(fs, c)
	k, assign, exact := g.Exact(nil)
	if k != 2 || !exact {
		t.Fatalf("K3,3 chromatic = %d (exact=%v), want 2", k, exact)
	}
	checkProper(t, g, assign)
}

func checkProper(t *testing.T, g *ConflictGraph, assign []int) {
	t.Helper()
	for i := 0; i < g.N(); i++ {
		if assign[i] < 0 {
			t.Fatalf("vertex %d uncolored", i)
		}
		for j := i + 1; j < g.N(); j++ {
			if g.Edge(i, j) && assign[i] == assign[j] {
				t.Fatalf("improper coloring: %d and %d share color %d", i, j, assign[i])
			}
		}
	}
}

func TestFastColor(t *testing.T) {
	universe := []model.Flow{model.F(0, 1), model.F(2, 3), model.F(4, 5), model.F(6, 7)}
	k1 := model.NewClique(model.F(0, 1), model.F(2, 3), model.F(4, 5))
	k2 := model.NewClique(model.F(0, 1), model.F(6, 7))
	pipe := []model.Flow{model.F(0, 1), model.F(2, 3), model.F(6, 7)}
	ix := model.NewFlowIndex(universe)
	cliqueBits, pipeSet := ix.CliqueBits([]model.Clique{k1, k2}), ix.Bits(pipe)
	if got := FastColorBits(cliqueBits, pipeSet); got != 2 {
		t.Fatalf("FastColorBits = %d, want 2", got)
	}
	if got := FastColorBits(nil, pipeSet); got != 0 {
		t.Fatalf("FastColorBits with no cliques = %d", got)
	}
	if got := FastColorBits(cliqueBits[:1], model.NewBitSet(ix.Len())); got != 0 {
		t.Fatalf("FastColorBits with empty pipe = %d", got)
	}
}

// The paper's key property: Fast_Color is a lower bound on the chromatic
// number of the conflict graph, and often tight. Verify the bound over
// random clique structures; also sanity-check greedy as an upper bound.
func TestFastColorIsLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tight := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		universe := flowsN(10)
		var cliques []model.Clique
		for i := 0; i < 4; i++ {
			var members []model.Flow
			for _, f := range universe {
				if rng.Intn(3) == 0 {
					members = append(members, f)
				}
			}
			cliques = append(cliques, model.NewClique(members...))
		}
		cliques = model.MaxCliques(cliques)
		// Pipe: random subset.
		var pipeList []model.Flow
		for _, f := range universe {
			if rng.Intn(2) == 0 {
				pipeList = append(pipeList, f)
			}
		}
		ix := model.NewFlowIndex(universe)
		pipe := ix.Bits(pipeList)
		lb := FastColorBits(ix.CliqueBits(cliques), pipe)
		g := BuildConflictGraphBits(pipe, model.ConflictMatrixFromCliques(ix, cliques))
		chrom, assign, exact := g.Exact(nil)
		if !exact {
			t.Fatalf("trial %d: exact coloring exhausted on a 10-vertex graph", trial)
		}
		checkProper(t, g, assign)
		if lb > chrom {
			t.Fatalf("trial %d: FastColorBits %d exceeds chromatic number %d", trial, lb, chrom)
		}
		gk, _ := g.Greedy()
		if gk < chrom {
			t.Fatalf("trial %d: greedy %d below chromatic %d", trial, gk, chrom)
		}
		if lb == chrom {
			tight++
		}
	}
	// "Close lower bound": tight in the large majority of cases.
	if tight*10 < trials*7 {
		t.Errorf("FastColorBits tight in only %d/%d trials", tight, trials)
	}
}

func TestExactMatchesBruteForceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		fs := flowsN(n)
		var c edges
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					c.Add(fs[i], fs[j])
				}
			}
		}
		g := graph(fs, c)
		k, assign, exact := g.Exact(nil)
		if !exact {
			t.Fatalf("budget exhausted on %d vertices", n)
		}
		checkProper(t, g, assign)
		if bf := bruteChromatic(g); bf != k {
			t.Fatalf("trial %d: exact=%d brute=%d", trial, k, bf)
		}
	}
}

func bruteChromatic(g *ConflictGraph) int {
	n := g.N()
	for k := 1; k <= n; k++ {
		assign := make([]int, n)
		if bruteTry(g, assign, 0, k) {
			return k
		}
	}
	return n
}

func bruteTry(g *ConflictGraph, assign []int, v, k int) bool {
	if v == g.N() {
		return true
	}
	for c := 1; c <= k; c++ {
		ok := true
		for u := 0; u < v; u++ {
			if g.Edge(u, v) && assign[u] == c {
				ok = false
				break
			}
		}
		if ok {
			assign[v] = c
			if bruteTry(g, assign, v+1, k) {
				return true
			}
		}
	}
	assign[v] = 0
	return false
}

func TestColorPipeDirection(t *testing.T) {
	fs := flowsN(4)
	cm := contention(fs, fullContention(fs[:3])) // first three mutually conflict
	k, assign, exact := ColorPipeDirectionBits(cm.Index().Bits(fs), cm)
	if k != 3 || !exact {
		t.Fatalf("k=%d exact=%v, want 3", k, exact)
	}
	if len(assign) != 4 {
		t.Fatalf("assignment size %d", len(assign))
	}
	seen := map[int]bool{}
	for _, f := range fs[:3] {
		col := assign[f]
		if col < 0 || col >= 3 || seen[col] {
			t.Fatalf("bad assignment %v", assign)
		}
		seen[col] = true
	}
}
