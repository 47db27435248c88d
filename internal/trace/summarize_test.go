package trace_test

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// contentionPairsMap counts |C| the way Summarize did before it moved onto
// ConflictMatrix: every unordered pair of distinct flows sharing a clique,
// collected in a map.
func contentionPairsMap(cliques []model.Clique) int {
	pairs := map[[2]model.Flow]struct{}{}
	for _, c := range cliques {
		for i := range c {
			for j := i + 1; j < len(c); j++ {
				a, b := c[i], c[j]
				if b.Less(a) {
					a, b = b, a
				}
				pairs[[2]model.Flow{a, b}] = struct{}{}
			}
		}
	}
	return len(pairs)
}

// TestContentionSzMatchesMapCount holds the dense contention_size to the map
// count on every generator at the paper's sizes and on the jittered CG/16
// trace of the warm_variants workload, whose 59 periods overlap heavily.
func TestContentionSzMatchesMapCount(t *testing.T) {
	var pats []*model.Pattern
	for _, name := range nas.Names() {
		small, large := nas.PaperProcs(name)
		for _, procs := range []int{small, large} {
			p, err := nas.Generate(name, procs, nas.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pats = append(pats, p)
		}
	}
	for _, name := range collective.Names() {
		small, large := collective.PaperNodes(name)
		for _, nodes := range []int{small, large} {
			p, err := collective.Generate(name, nodes, collective.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pats = append(pats, p)
		}
	}
	cg, err := nas.Generate("CG", 16, nas.Config{Iterations: 39})
	if err != nil {
		t.Fatal(err)
	}
	pats = append(pats, trace.ApplySkew(cg, 0.5, 1))

	for _, p := range pats {
		want := contentionPairsMap(model.MaxCliqueSet(p))
		if got := trace.Summarize(p).ContentionSz; got != want {
			t.Errorf("%s/%d: ContentionSz = %d, map count = %d", p.Name, p.Procs, got, want)
		}
		if want == 0 {
			t.Errorf("%s/%d: no contending pair; the comparison is vacuous", p.Name, p.Procs)
		}
	}
}
