package coloring

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// flowsN builds n distinct flows (i, i+100), in sorted order, so flow i is
// vertex i of any conflict graph over all of them.
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
// pairs, and the index it is defined over.
func contention(fs []model.Flow, c edges) (*model.FlowIndex, *model.ConflictMatrix) {
	ix := model.NewFlowIndex(fs)
	cm := model.NewConflictMatrix(ix)
	for _, p := range c {
		i, _ := ix.ID(p[0])
		j, _ := ix.ID(p[1])
		cm.Add(i, j)
	}
	return ix, cm
}

// graph builds the conflict graph with vertices fs and the listed edges.
func graph(fs []model.Flow, c edges) *conflictGraph {
	ix, cm := contention(fs, c)
	return buildConflictGraph(ix.Bits(fs), cm)
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

// edge reports whether vertices i and j conflict.
func (g *conflictGraph) edge(i, j int) bool { return g.adj[i].Has(j) }

// edgeCount counts the graph's edges.
func (g *conflictGraph) edgeCount() int {
	e := 0
	for _, d := range g.degree {
		e += d
	}
	return e / 2
}

func TestBuildConflictGraph(t *testing.T) {
	fs := flowsN(4)
	var c edges
	c.Add(fs[0], fs[1])
	c.Add(fs[2], fs[3])
	g := graph(fs, c)
	if g.n() != 4 || g.edgeCount() != 2 {
		t.Fatalf("graph: n=%d e=%d", g.n(), g.edgeCount())
	}
	if !g.edge(0, 1) || !g.edge(3, 2) || g.edge(0, 2) {
		t.Fatal("wrong adjacency")
	}
}

func TestGreedyOnCompleteGraph(t *testing.T) {
	fs := flowsN(5)
	g := graph(fs, fullContention(fs))
	k, assign := g.dsatur()
	if k != 5 {
		t.Fatalf("K5 greedy colors = %d, want 5", k)
	}
	checkProper(t, g, k, assign)
}

func TestGreedyOnEmptyGraph(t *testing.T) {
	fs := flowsN(6)
	g := graph(fs, nil)
	k, assign := g.dsatur()
	if k != 1 {
		t.Fatalf("edgeless graph colors = %d, want 1", k)
	}
	checkProper(t, g, k, assign)
}

func TestGreedyZeroVertices(t *testing.T) {
	g := graph(nil, nil)
	if k, _ := g.dsatur(); k != 0 {
		t.Fatalf("empty graph colors = %d", k)
	}
	if k, _ := g.chromatic(); k != 0 {
		t.Fatalf("empty graph chromatic = %d", k)
	}
	ix, cm := contention(nil, nil)
	if k, _, certified := Color(ix.Bits(nil), cm); k != 0 || !certified {
		t.Fatalf("empty direction: k=%d certified=%v, want 0, certified", k, certified)
	}
}

// TestExactOddCycle pins the case the certificate cannot settle: C5 needs 3
// colours and DSATUR finds 3, but its largest clique is an edge, so Color
// returns the optimum uncertified. Only the oracle proves it optimal.
func TestExactOddCycle(t *testing.T) {
	fs := flowsN(5)
	var c edges
	for i := 0; i < 5; i++ {
		c.Add(fs[i], fs[(i+1)%5])
	}
	g := graph(fs, c)
	chi, assign := g.chromatic()
	if chi != 3 {
		t.Fatalf("C5 chromatic = %d, want 3", chi)
	}
	checkProper(t, g, chi, assign)
	ix, cm := contention(fs, c)
	k, colors, certified := Color(ix.Bits(fs), cm)
	if k != 3 || certified {
		t.Fatalf("C5 Color: k=%d certified=%v, want 3 uncertified", k, certified)
	}
	checkProper(t, g, k, colors)
}

func TestExactBipartite(t *testing.T) {
	// K3,3 is 2-chromatic, and one edge certifies it.
	fs := flowsN(6)
	var c edges
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			c.Add(fs[i], fs[j])
		}
	}
	g := graph(fs, c)
	chi, assign := g.chromatic()
	if chi != 2 {
		t.Fatalf("K3,3 chromatic = %d, want 2", chi)
	}
	checkProper(t, g, chi, assign)
	ix, cm := contention(fs, c)
	if k, _, certified := Color(ix.Bits(fs), cm); k != 2 || !certified {
		t.Fatalf("K3,3 Color: k=%d certified=%v, want 2 certified", k, certified)
	}
}

// checkProper fails unless assign gives every vertex a colour in [0, k) and
// no edge two ends of one colour.
func checkProper(t testing.TB, g *conflictGraph, k int, assign []int) {
	t.Helper()
	if len(assign) != g.n() {
		t.Fatalf("%d colours for %d vertices", len(assign), g.n())
	}
	for i := 0; i < g.n(); i++ {
		if assign[i] < 0 || assign[i] >= k {
			t.Fatalf("vertex %d coloured %d, outside [0, %d)", i, assign[i], k)
		}
		for j := i + 1; j < g.n(); j++ {
			if g.edge(i, j) && assign[i] == assign[j] {
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
// random clique structures; also sanity-check DSATUR as an upper bound.
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
		g := buildConflictGraph(pipe, model.ConflictMatrixFromCliques(ix, cliques))
		chrom, assign := g.chromatic()
		checkProper(t, g, chrom, assign)
		if lb > chrom {
			t.Fatalf("trial %d: FastColorBits %d exceeds chromatic number %d", trial, lb, chrom)
		}
		gk, _ := g.dsatur()
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
		k, assign := g.chromatic()
		checkProper(t, g, k, assign)
		if bf := bruteChromatic(g); bf != k {
			t.Fatalf("trial %d: exact=%d brute=%d", trial, k, bf)
		}
	}
}

func bruteChromatic(g *conflictGraph) int {
	n := g.n()
	for k := 1; k <= n; k++ {
		assign := make([]int, n)
		if bruteTry(g, assign, 0, k) {
			return k
		}
	}
	return n
}

func bruteTry(g *conflictGraph, assign []int, v, k int) bool {
	if v == g.n() {
		return true
	}
	for c := 1; c <= k; c++ {
		ok := true
		for u := 0; u < v; u++ {
			if g.edge(u, v) && assign[u] == c {
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
	ix, cm := contention(fs, fullContention(fs[:3])) // first three mutually conflict
	k, colors, certified := Color(ix.Bits(fs), cm)
	if k != 3 || !certified {
		t.Fatalf("k=%d certified=%v, want 3 certified", k, certified)
	}
	if len(colors) != 4 {
		t.Fatalf("%d colours for 4 flows", len(colors))
	}
	seen := map[int]bool{}
	for _, col := range colors[:3] {
		if col < 0 || col >= 3 || seen[col] {
			t.Fatalf("bad colouring %v", colors)
		}
		seen[col] = true
	}
}
