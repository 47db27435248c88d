package synth

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// randomTimedPattern draws 6 to 16 processors and up to four messages per
// processor between random distinct endpoints, each in flight over a random
// window, so its contention cliques follow no benchmark's structure.
func randomTimedPattern(rng *rand.Rand, name string) *model.Pattern {
	procs := 6 + rng.Intn(11)
	p := &model.Pattern{Name: name, Procs: procs}
	for m, msgs := 0, procs+rng.Intn(3*procs); m < msgs; m++ {
		src, dst := rng.Intn(procs), rng.Intn(procs-1)
		if dst >= src {
			dst++
		}
		start := rng.Float64() * 10
		p.Messages = append(p.Messages, model.Message{
			ID: m, Src: src, Dst: dst, Start: start, Finish: start + rng.Float64()*3, Bytes: 64,
		})
	}
	return p
}

// TestCertifiedOnRandomPatterns pins the fact formal colouring rests on:
// DSATUR's width is certified minimal by a clique of the conflict graph on
// every pipe direction of random-time patterns, at the default budget and at
// a looser one, so no chromatic search is needed to prove it. A change that
// breaks this calls for bringing branch-and-bound colouring back (the
// oracle in internal/coloring's tests), not for loosening the test. It runs
// in under 2 s on a 2-core box.
func TestCertifiedOnRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	budgets := []Constraints{{}, {MaxDegree: 8, MaxProcsPerSwitch: 4}}
	colourings := 0
	for i := 0; i < 300; i++ {
		p := randomTimedPattern(rng, fmt.Sprintf("rand%d", i))
		for _, c := range budgets {
			res := synthOrDie(t, p, Options{Constraints: c, Seed: int64(i), Restarts: 1, Workers: 1})
			colourings += res.Stats.DSATUR
			if !res.ExactColoring {
				t.Errorf("%s (%d procs, %d messages) at %+v: a width is not certified minimal", p.Name, p.Procs, len(p.Messages), c)
			}
		}
	}
	t.Logf("%d colourings", colourings)
}
