package synth_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/routing"
	"repro/internal/synth"
	"repro/internal/topology"
)

// TestRoundDegreesMatchAssembly is the oracle of the per-round check: a round
// colours and counts degrees in switch-index space, repair pipes included,
// and only the round a restart exits on builds a network. With every round
// assembled (synth.AssembleEveryRound), each round's real degrees must be the
// assembled network's — the live switches are exactly the indices of nonzero
// degree, in ascending order — and the network and table must validate. The
// seam must not move a byte of the design or a Stats field. It runs the
// verdict corpus and the NoI levels of the three hier classes the server
// benchmark requests, which end unmet after every round, at seeds 1–4.
func TestRoundDegreesMatchAssembly(t *testing.T) {
	runs := verdictRuns(t)
	for _, noi := range noiLevels(t) {
		for seed := int64(1); seed <= 4; seed++ {
			runs = append(runs, verdictRun{"noi", noi, "whole", synth.Options{Seed: seed, Workers: 2}})
		}
	}

	var (
		mu     sync.Mutex
		rounds int
	)
	check := func(realDeg []int, net *topology.Network, table *routing.Table) {
		mu.Lock()
		defer mu.Unlock()
		rounds++
		var live, assembled []int
		for _, d := range realDeg {
			if d > 0 {
				live = append(live, d)
			}
		}
		for sw := range net.Switches {
			assembled = append(assembled, net.Degree(topology.SwitchID(sw)))
		}
		if !reflect.DeepEqual(live, assembled) {
			t.Errorf("%s: round degrees %v, assembled %v", net.Name, live, assembled)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: %v", net.Name, err)
		}
		if err := table.Validate(); err != nil {
			t.Errorf("%s: %v", net.Name, err)
		}
	}
	defer synth.AssembleEveryRound(nil)
	for _, r := range runs {
		name := r.label + " " + r.pat.Name + "/" + r.drop
		synth.AssembleEveryRound(nil)
		want, err := synth.Synthesize(r.pat, r.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rounds = 0
		synth.AssembleEveryRound(check)
		got, err := synth.Synthesize(r.pat, r.opt)
		if err != nil {
			t.Fatalf("%s with every round assembled: %v", name, err)
		}
		if rounds < got.Stats.Rounds {
			t.Errorf("%s: %d rounds assembled, the winner alone ran %d", name, rounds, got.Stats.Rounds)
		}
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
			t.Errorf("%s seed %d: design differs with every round assembled", name, r.opt.Seed)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s seed %d: Stats %+v with every round assembled, %+v without", name, r.opt.Seed, got.Stats, want.Stats)
		}
	}
}
