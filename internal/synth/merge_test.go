package synth

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
)

// mergePatterns are the workloads the merge tests run on: the NAS pattern
// with the most merge attempts, the one where nearly every attempt is
// skipped, and the largest collective.
func mergePatterns(t *testing.T) []*model.Pattern {
	t.Helper()
	bt, err := nas.Generate("BT", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := nas.Generate("CG", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return []*model.Pattern{bt, cg, ring}
}

// singletons returns a state refined under a one-processor-per-switch budget
// and then given the default four: legal but fragmented, so its first merge
// sweeps keep merges. Two calls with equal arguments return equal states.
func singletons(t *testing.T, k *kernel, seed int64) *state {
	t.Helper()
	opt := Options{Seed: seed}.Normalized()
	opt.MaxProcsPerSwitch = 1
	s := newState(k, opt, seed, &Stats{})
	if !s.partition() {
		t.Fatalf("seed %d: no legal all-singleton placement", seed)
	}
	s.setBudgets(s.opt.MaxDegree, 4)
	return s
}

// listsOf renders swProcs with its order, which split's shuffle reads.
func listsOf(s *state) string { return fmt.Sprint(s.swProcs) }

// TestMergeRefineMatchesReference runs mergeRefine and the reference loop —
// every attempt made in full and undone from a snapshot — on twin states,
// sweep after sweep with a swap and a Best_Route pass in between, and
// requires the same placement, routes, processor lists in the same order and
// merges kept. Every attempt the reference makes also tests the bound: one
// that portBound would skip must have failed.
func TestMergeRefineMatchesReference(t *testing.T) {
	var kept, skipped int
	for _, pat := range mergePatterns(t) {
		k := newKernel(pat, model.MaxCliqueSet(pat))
		for seed := int64(1); seed <= 2; seed++ {
			snew, sref := singletons(t, k, seed), singletons(t, k, seed)
			for sweep := 0; sweep < 4; sweep++ {
				movedBefore := snew.stats.GlobalMoves
				snew.mergeRefine()
				for _, at := range sref.mergeRefineRef() {
					if at.bound > sref.opt.MaxDegree {
						skipped++
						if at.kept {
							t.Fatalf("%s seed %d sweep %d: merge (%d,%d) was kept, portBound %d would skip it",
								pat.Name, seed, sweep, at.a, at.b, at.bound)
						}
					}
				}
				if !equalSnapshots(snapshotFull(sref), snapshotFull(snew)) {
					t.Fatalf("%s seed %d sweep %d: placement or routes differ from the reference", pat.Name, seed, sweep)
				}
				if got, want := listsOf(snew), listsOf(sref); got != want {
					t.Fatalf("%s seed %d sweep %d: processor lists\n got %s\nwant %s", pat.Name, seed, sweep, got, want)
				}
				if snew.stats.GlobalMoves != sref.stats.GlobalMoves {
					t.Fatalf("%s seed %d sweep %d: kept merges moved %d processors, the reference's %d",
						pat.Name, seed, sweep, snew.stats.GlobalMoves, sref.stats.GlobalMoves)
				}
				kept += snew.stats.GlobalMoves - movedBefore
				checkStateInvariants(t, snew)
				for _, s := range []*state{snew, sref} {
					s.swapRefine()
					s.bestRoute(s.allSwitches(), nil)
				}
			}
			snew.release()
			sref.release()
		}
	}
	if kept == 0 || skipped == 0 {
		t.Fatalf("%d processors merged, %d attempts the bound skips: the comparison saw too little", kept, skipped)
	}
}

// TestPortBoundSound holds the bound to the degree it must not exceed on
// fully refined states (the random-operation half of the property is in
// checkTables, which TestMoveEngineRandomEquivalence and FuzzMoveEngine call
// after every operation; the attempt-by-attempt half in
// TestMergeRefineMatchesReference): for every switch as it stands, and for
// every pair by carrying the merge out with direct routes, the one routing
// the bound's proof does not need.
func TestPortBoundSound(t *testing.T) {
	for _, pat := range mergePatterns(t) {
		k := newKernel(pat, model.MaxCliqueSet(pat))
		s := newState(k, Options{Seed: 1}.Normalized(), 1, &Stats{})
		s.partition()
		checkTables(t, s)
		for a := range s.swProcs {
			for b := range s.swProcs {
				if a == b || len(s.swProcs[a]) == 0 || len(s.swProcs[b]) == 0 {
					continue
				}
				bound := s.portBound(a, b)
				m := s.beginProbe()
				for _, p := range append([]int(nil), s.swProcs[b]...) {
					s.reattach(p, a)
				}
				if deg := s.estDegreeRef(a); bound > deg {
					t.Fatalf("%s: portBound(%d,%d) = %d, the merged switch's degree is %d", pat.Name, a, b, bound, deg)
				}
				s.rollback(m)
			}
		}
		s.release()
	}
}

// TestMergeRefineSkips pins how much of the merge sweep the bound removes on
// BT/16, so a bound that stops firing fails here and not only in a
// benchmark. The counters sum all four restarts (Result.Stats is the
// winner's alone). merges_tried counts every pair that fits the processor
// budget, skipped or not: 1,044 is the number of full attempts the loop made
// before it had a bound.
func TestMergeRefineSkips(t *testing.T) {
	pat, err := nas.Generate("BT", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	if _, err := Synthesize(pat, Options{Seed: 1, Workers: 1, Obs: col}); err != nil {
		t.Fatal(err)
	}
	if got := col.Counter("synth.merges_tried"); got != 1044 {
		t.Errorf("synth.merges_tried = %d, want 1044", got)
	}
	if got := col.Counter("synth.merges_skipped"); got < 400 {
		t.Errorf("synth.merges_skipped = %d, want at least 400 of 1044", got)
	}
}
