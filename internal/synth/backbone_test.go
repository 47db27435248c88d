package synth

import (
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

// TestBackboneRerouteMeetsDegree pins runs where backboneReroute decides the
// verdict, a kind the golden corpus lacks: cold BT/9 and SP/9 without their
// 1→2 flow under MaxDegree 4. With the backbone proposal these designs meet
// their constraints at ResourceCost 31; without it they end ConstraintsMet
// false. Stubbing the phase leaves all 63 golden rows unchanged, so this test
// is what shows a corpus-only ablation that the phase is live.
func TestBackboneRerouteMeetsDegree(t *testing.T) {
	for _, name := range []string{"BT", "SP"} {
		p, err := nas.Generate(name, 9, nas.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		v := withoutFlow(p, model.F(1, 2))
		for _, maxProcs := range []int{2, 3} {
			res := synthOrDie(t, v, Options{Seed: 9, Restarts: 2,
				Constraints: Constraints{MaxDegree: 4, MaxProcsPerSwitch: maxProcs}})
			if !res.ConstraintsMet || !res.ContentionFree {
				t.Errorf("%s/9 without 1→2, MaxProcsPerSwitch %d: ConstraintsMet %v, ContentionFree %v; want both",
					name, maxProcs, res.ConstraintsMet, res.ContentionFree)
			}
			if c := res.ResourceCost(); c != 31 {
				t.Errorf("%s/9 without 1→2, MaxProcsPerSwitch %d: ResourceCost %d, want 31", name, maxProcs, c)
			}
		}
	}
}
