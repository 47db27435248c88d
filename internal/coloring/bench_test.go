package coloring

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

func benchCliques(rng *rand.Rand, universe []model.Flow, n int) []model.Clique {
	var cliques []model.Clique
	for i := 0; i < n; i++ {
		var members []model.Flow
		for _, f := range universe {
			if rng.Intn(3) == 0 {
				members = append(members, f)
			}
		}
		cliques = append(cliques, model.NewClique(members...))
	}
	return model.MaxCliques(cliques)
}

// BenchmarkFastColor measures the production Fast_Color kernel: one
// popcount-of-AND per clique on the dense flow-ID representation.
func BenchmarkFastColor(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	universe := flowsN(40)
	cliques := benchCliques(rng, universe, 12)
	ix := model.NewFlowIndex(universe)
	cliqueBits := ix.CliqueBits(cliques)
	pipe := model.NewBitSet(ix.Len())
	for i, f := range universe {
		if i%2 == 0 {
			if id, ok := ix.ID(f); ok {
				pipe.Set(id)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FastColorBits(cliqueBits, pipe)
	}
}

// BenchmarkFastColorMapReference measures the map-based test oracle on the
// same instance, for comparison against the kernel.
func BenchmarkFastColorMapReference(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	universe := flowsN(40)
	cliques := benchCliques(rng, universe, 12)
	pipe := map[model.Flow]bool{}
	for i, f := range universe {
		if i%2 == 0 {
			pipe[f] = true
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FastColor(cliques, pipe)
	}
}

func BenchmarkGreedyColoring(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	universe := flowsN(40)
	cliques := benchCliques(rng, universe, 12)
	ix := model.NewFlowIndex(universe)
	g := buildConflictGraph(ix.Bits(universe), model.ConflictMatrixFromCliques(ix, cliques))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.dsatur()
	}
}

// BenchmarkColor measures formal colouring of one pipe direction as
// finalization runs it: the conflict graph's construction, DSATUR and the
// clique certificate.
func BenchmarkColor(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	universe := flowsN(24)
	cliques := benchCliques(rng, universe, 8)
	ix := model.NewFlowIndex(universe)
	pipe, cm := ix.Bits(universe), model.ConflictMatrixFromCliques(ix, cliques)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Color(pipe, cm)
	}
}
