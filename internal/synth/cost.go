package synth

// Cost model. The objective is lexicographic — design-constraint violations,
// then link count, then congestion load, then hops — folded into one integer
// with well-separated weights:
//
//   - penalty: units of degree/processor-count excess. Dominant, so the
//     search never trades a violation for fewer links.
//   - links: the estimated pipe widths (Fast_Color), the paper's objective.
//   - quad: Σ over pipe directions and cliques of count², a smooth surrogate
//     for the width max. Removing one same-period flow from a loaded pipe
//     always lowers quad even when it cannot yet lower the width, giving
//     hill-climbing a gradient across the width plateaus.
//   - hops: total route length, a weak preference for short paths.
//
// Evaluation reads tables that setRouteRaw keeps exact: per pipe direction a
// row of per-clique flow counts, its maximum (dirW, the Fast_Color width) and
// sum of squares (dirQ), per pair the larger direction width (pairW), per
// switch the sum of its pair widths (sumW), and the objective's totals —
// penalty (excess summed over switches), links (Σ pairW), quad (Σ dirQ),
// totalHops, and live, the switches that are not dead — so globalCost is a
// read. Every raw mutation leaves them equal to a from-scratch recomputation,
// hence so does every rollback; they are held to one (checkTables in
// state_test.go, localCostRef in moveref_test.go) after every operation of
// TestMoveEngineRandomEquivalence. Candidates are priced from the same tables
// without mutating them (whatif.go).
const (
	costHopWeight     = 1
	costQuadWeight    = 1 << 4
	costLinkWeight    = 1 << 16
	costPenaltyWeight = 1 << 28
)

// portBound is a lower bound, from placement alone, on the port count of one
// switch hosting every processor of a and b (a == b: of a as it stands): its
// processors, plus the most flows of any one clique that leave the set, or
// enter it. Each such flow's route has a hop out of (into) the switch, on
// some pipe direction whose width is at least its count of that clique's
// flows; summed over the switch's pipes that is at most estDegree, whatever
// the routes are.
func (s *state) portBound(a, b int) int {
	cnt := s.boundCnt // leaving counts by clique, then entering counts
	sws := []int{a, b}
	if a == b {
		sws = sws[:1]
	}
	n, most := 0, int32(0)
	for _, sw := range sws {
		n += len(s.swProcs[sw])
		for _, p := range s.swProcs[sw] {
			for _, fi := range s.procFlows[p] {
				f := s.flows[fi]
				hs, hd := s.home[f.Src], s.home[f.Dst]
				leaves, enters := hs == a || hs == b, hd == a || hd == b
				if leaves == enters {
					continue // both endpoints inside: the flow needs no port
				}
				off := 0
				if enters {
					off = len(s.cliques)
				}
				for _, c := range s.flowCliques[fi] {
					cnt[off+int(c)]++
					most = max(most, cnt[off+int(c)])
				}
			}
		}
	}
	clear(cnt)
	return n + int(most)
}

// estDegree estimates the port count of a switch under current routing:
// processor ports plus the maintained width sum.
func (s *state) estDegree(sw int) int {
	return len(s.swProcs[sw]) + int(s.sumW[sw])
}

// excess is the constraint violation of a switch with deg ports and n
// processors: degree excess plus processor-count excess.
func (s *state) excess(deg, n int) int {
	return max(0, deg-s.opt.MaxDegree) + max(0, n-s.opt.MaxProcsPerSwitch)
}

// tally adds (sign 1) or removes (sign -1) switch sw's part of the totals:
// its excess and its liveness. A mutator removes a switch's part before it
// changes the switch's processors or width sum and adds it back after, so
// adding it back is where sw's bit of liveSet is set or cleared: the one
// place liveness changes.
func (s *state) tally(sw, sign int) {
	s.penalty += sign * s.excess(s.estDegree(sw), len(s.swProcs[sw]))
	dead := s.dead(sw)
	if !dead {
		s.live += sign
	}
	if sign > 0 {
		if dead {
			s.liveSet.Clear(sw)
		} else {
			s.liveSet.Set(sw)
		}
	}
}

// globalCost is the weighted objective over every pipe and switch.
func (s *state) globalCost() int {
	return s.penalty*costPenaltyWeight + s.links*costLinkWeight +
		s.quad*costQuadWeight + s.totalHops*costHopWeight
}

// violates reports whether a switch breaks the design constraints under the
// current width estimates.
func (s *state) violates(sw int) bool {
	return s.excess(s.estDegree(sw), len(s.swProcs[sw])) > 0
}
