package synth

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

// TestBestRouteTouchedMatchesFullScan holds bestRoute's pass over the flows
// touchedFlows collects to the full scan priceEveryTarget keeps, which walks
// every flow's route against the touch list. Two states of a NAS pattern
// (whose exchanges pair most flows with a mirrored reverse) take the same
// random splits, relocations and full Best_Route passes, then one touched
// pass each with one or two switches, a via list of nil or the touched ones;
// routes, tables, processor lists and Stats must stay equal throughout.
//
// A pass that skipped the per-visit route check would reroute a mirror that
// stopped touching the list when its pair moved; that changes the result
// only when the lone reroute wins, which a 600-trial search found twice.
// Trial 133 (MG/16, op 18) is one, so the trial count reaches it.
func TestBestRouteTouchedMatchesFullScan(t *testing.T) {
	rerouted := 0
	for trial := 0; trial < 135; trial++ {
		name := []string{"CG", "FFT", "BT", "MG", "SP"}[trial%5]
		procs := 16
		if name == "BT" || name == "SP" {
			procs = 9
		}
		pat, err := nas.Generate(name, procs, nas.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cliques := model.MaxCliqueSet(pat)
		seed := int64(trial)
		opt := Options{Seed: seed}.Normalized()
		sref := newState(newKernel(pat, cliques), opt, seed, &Stats{})
		snew := newState(newKernel(pat, cliques), opt, seed, &Stats{})
		rng := rand.New(rand.NewSource(seed*17 + 3))
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0:
				sw := rng.Intn(sref.nsw())
				if len(sref.swProcs[sw]) >= 2 && sref.nsw() < 8 {
					sref.split(sw)
					snew.split(sw)
				}
			case 1:
				p, to := rng.Intn(sref.procs), rng.Intn(sref.nsw())
				if to != sref.home[p] {
					sref.reattach(p, to)
					snew.reattach(p, to)
				}
			case 2:
				sref.bestRoute(nil, nil)
				snew.bestRoute(nil, nil)
			case 3:
				touch := []int{rng.Intn(sref.nsw())}
				if b := rng.Intn(sref.nsw()); b != touch[0] && rng.Intn(2) == 0 {
					touch = append(touch, b)
				}
				var via []int
				if rng.Intn(2) == 0 {
					via = touch
				}
				before := sref.stats.Reroutes
				priceEveryTarget = true
				sref.bestRoute(touch, via)
				priceEveryTarget = false
				snew.bestRoute(touch, via)
				rerouted += sref.stats.Reroutes - before
			}
			if !equalSnapshots(snapshotFull(sref), snapshotFull(snew)) {
				t.Fatalf("trial %d op %d: states diverged", trial, op)
			}
			if got, want := listsOf(snew), listsOf(sref); got != want {
				t.Fatalf("trial %d op %d: processor lists diverged:\nfull=%s\nnew=%s", trial, op, want, got)
			}
			if *sref.stats != *snew.stats {
				t.Fatalf("trial %d op %d: stats diverged:\nfull=%+v\nnew=%+v", trial, op, *sref.stats, *snew.stats)
			}
		}
		checkStateInvariants(t, snew)
		sref.release()
		snew.release()
	}
	if rerouted == 0 {
		t.Fatal("no touched pass rerouted a flow")
	}
	t.Logf("touched passes rerouted %d flows", rerouted)
}
