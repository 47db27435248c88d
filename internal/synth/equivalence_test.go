package synth

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

// The dense flow-ID bitset kernel must be observationally equivalent to a
// map-based recomputation of the per-direction width/quad statistics the
// search steers by. Randomized routing states over all five NAS benchmarks
// exercise the kernel far beyond the hand-built unit fixtures. Fast_Color and
// the C ∩ R intersection are held to their map oracles where those live:
// coloring.TestFastColorBitsMatchesMapReference and
// model.TestConflictMatrixMatchesPairSet.

func TestKernelEquivalenceNAS(t *testing.T) {
	for _, name := range nas.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pat, err := nas.Generate(name, 16, nas.Config{Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			cliques := model.MaxCliqueSet(pat)
			rng := rand.New(rand.NewSource(int64(len(name)) * 1009))

			// dirStats width/quad on randomized routing states.
			s := newState(newKernel(pat, cliques), Options{Seed: 7}.Normalized(), 7, &Stats{})
			for op := 0; op < 120; op++ {
				switch rng.Intn(3) {
				case 0:
					var eligible []int
					for sw, procs := range s.swProcs {
						if len(procs) >= 2 {
							eligible = append(eligible, sw)
						}
					}
					if len(eligible) > 0 && len(s.swProcs) < 8 {
						s.split(eligible[rng.Intn(len(eligible))])
					}
				case 1:
					p := rng.Intn(pat.Procs)
					to := rng.Intn(len(s.swProcs))
					if to != s.home[p] {
						s.reattach(p, to)
					}
				case 2:
					fi := rng.Intn(len(s.flows))
					f := s.flows[fi]
					a, b := s.home[f.Src], s.home[f.Dst]
					if a == b {
						continue
					}
					m := rng.Intn(len(s.swProcs))
					if m != a && m != b {
						s.setRoute(fi, []int{a, m, b})
					} else {
						s.setRoute(fi, []int{a, b})
					}
				}
				if op%10 != 0 {
					continue
				}
				for from := 0; from < s.nsw(); from++ {
					for to := 0; to < s.nsw(); to++ {
						if from == to {
							continue
						}
						wantW, wantQ := dirStatsReference(s, cliques, from, to)
						gotW, gotQ := s.dirStats(from, to)
						if gotW != wantW || gotQ != wantQ {
							t.Fatalf("op %d pipe (%d,%d): dirStats = (%d,%d), reference = (%d,%d)",
								op, from, to, gotW, gotQ, wantW, wantQ)
						}
					}
				}
			}
		})
	}
}

// dirStatsReference recomputes one direction's width/quad the way the
// pre-kernel implementation did: count, per clique, its members whose route
// crosses the (from,to) hop.
func dirStatsReference(s *state, cliques []model.Clique, from, to int) (width, quad int) {
	onPipe := map[model.Flow]bool{}
	for fi, r := range s.routes {
		for i := 1; i < len(r); i++ {
			if r[i-1] == from && r[i] == to {
				onPipe[s.flows[fi]] = true
			}
		}
	}
	for _, c := range cliques {
		n := 0
		for _, f := range c {
			if onPipe[f] {
				n++
			}
		}
		if n > 0 {
			if n > width {
				width = n
			}
			quad += n * n
		}
	}
	return width, quad
}
