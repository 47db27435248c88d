package repro

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Example_synthesize designs a network for the paper's Figure 1 CG-16
// pattern and verifies the contention-free condition of Theorem 1.
func Example_synthesize() {
	pattern := nas.Figure1Pattern()
	result, err := synth.Synthesize(pattern, synth.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("constraints met:", result.ConstraintsMet)
	fmt.Println("contention-free:", result.ContentionFree)
	fmt.Println("max degree:", result.Net.MaxDegree())
	// Output:
	// constraints met: true
	// contention-free: true
	// max degree: 5
}

// Example_contentionModel extracts the paper's Section 2 model from a small
// timed pattern: contention periods, the maximum clique set, and |C|.
func Example_contentionModel() {
	p := trace.BuildPhased("demo", 4, []trace.PhaseSpec{
		{Label: "a", Flows: []model.Flow{model.F(0, 1), model.F(2, 3)}, Bytes: 64},
		{Label: "b", Flows: []model.Flow{model.F(1, 0)}, Bytes: 64},
	})
	periods := model.ContentionPeriods(p)
	maxed := model.MaxCliques(periods)
	c := model.ConflictMatrixFromCliques(model.NewFlowIndex(p.Flows()), maxed)
	fmt.Println("periods:", len(periods))
	fmt.Println("maximal cliques:", len(maxed))
	fmt.Println("|C|:", c.Len())
	// Output:
	// periods: 2
	// maximal cliques: 2
	// |C|: 1
}

// Example_theorem1 shows the sufficient condition directly: two flows that
// overlap in time and share a link violate C ∩ R = ∅.
func Example_theorem1() {
	ix := model.NewFlowIndex([]model.Flow{model.F(0, 2), model.F(1, 2)})
	c := model.NewConflictMatrix(ix)
	c.Add(0, 1)
	r := model.NewConflictMatrix(ix)
	r.Add(0, 1)
	free, witnesses := model.ContentionFreeBits(c, r)
	fmt.Println("contention-free:", free)
	fmt.Println("witnesses:", len(witnesses))
	// Output:
	// contention-free: false
	// witnesses: 1
}
