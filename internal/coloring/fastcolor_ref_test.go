package coloring

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

// FastColor is the map-based Fast_Color the dense kernel replaced, kept in
// the test build as the oracle FastColorBits is held to: the maximum number
// of flows the set shares with any one clique.
func FastColor(cliques []model.Clique, flows map[model.Flow]bool) int {
	best := 0
	for _, c := range cliques {
		n := 0
		for _, f := range c {
			if flows[f] {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

// TestFastColorBitsMatchesMapReference draws random flow subsets over the
// maximum clique set of every NAS benchmark and requires the popcount kernel
// to agree with the map oracle on each.
func TestFastColorBitsMatchesMapReference(t *testing.T) {
	for _, name := range nas.Names() {
		pat, err := nas.Generate(name, 16, nas.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		cliques := model.MaxCliqueSet(pat)
		ix := model.NewFlowIndex(pat.Flows())
		cliqueBits := ix.CliqueBits(cliques)
		rng := rand.New(rand.NewSource(int64(len(name)) * 1009))
		for trial := 0; trial < 50; trial++ {
			sub := map[model.Flow]bool{}
			bits := model.NewBitSet(ix.Len())
			for i := 0; i < ix.Len(); i++ {
				if rng.Intn(3) == 0 {
					sub[ix.Flow(i)] = true
					bits.Set(i)
				}
			}
			want := FastColor(cliques, sub)
			if got := FastColorBits(cliqueBits, bits); got != want {
				t.Fatalf("%s trial %d: FastColorBits = %d, FastColor = %d", name, trial, got, want)
			}
		}
	}
}
