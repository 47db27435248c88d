package synth

import "slices"

// rerouteAnneal is the escape hatch for plateau-locked violations: while
// some switch still exceeds its degree budget, randomly chosen exchange
// groups are rerouted through random intermediates, accepting any
// non-worsening move (and occasional worsening ones early in the schedule).
// Plateau moves reshuffle which pipes exist without changing the objective,
// which is exactly what is needed when reducing one switch's degree requires
// first rearranging its neighbours'. Bounded and fully deterministic for a
// given seed.
func (s *state) rerouteAnneal(budget int) {
	var candBuf [3]int
	for step := 0; step < budget; step++ {
		if !s.anyViolation() {
			return
		}
		fi := s.rng.Intn(len(s.flows))
		f := s.flows[fi]
		a, b := s.home[f.Src], s.home[f.Dst]
		if a == b {
			continue
		}
		g := group{fi, -1}
		if ri := s.revID[fi]; ri >= 0 && isMirror(s.routes[ri], s.routes[fi]) {
			g[1] = ri
		}
		m := s.rng.Intn(len(s.swProcs))
		var cand []int
		if m == a || m == b {
			cand = candBuf[:2] // fall back to the direct path
			cand[0], cand[1] = a, b
		} else {
			cand = candBuf[:3]
			cand[0], cand[1], cand[2] = a, m, b
		}
		if equalRoute(cand, s.routes[fi]) {
			continue
		}
		// Accept improvements and plateaus; accept small regressions
		// in the first quarter of the budget. Only a price at or under the
		// limit is read, so one above it bounds the pricing.
		limit := 0
		if step < budget/4 {
			limit = costQuadWeight * 4
		}
		if delta := s.groupRouteDelta(g, cand, limit+1); delta <= limit {
			s.applyGroupRoute(g, cand)
			s.stats.Reroutes += groupLen(g)
			if delta < 0 {
				s.stats.MovesCommitted++
			}
		}
	}
}

// swapRefine looks for improving processor exchanges between any two
// switches — relocations alone cannot explore placements where every switch
// is at its processor or degree budget.
//
// A swap probe leaves both processors at the end of their home lists, as the
// reference's apply/undo round trip does, and the bytes depend on the order.
// While no swap has committed, the pass defers those list moves. A pass that
// commits none leaves every list ascending: for a < b on one list, the last
// probes of both pair them with x, the largest processor on another switch,
// and (a,x) or (x,a) comes before (b,x) or (x,b). So it sorts each list once
// at the end, and the first winning swap replays the probes before it
// (replaySwapOrder). A pair of sealed processors is not priced: the swap
// cannot win.
func (s *state) swapRefine() bool {
	changed, probed, deferred := false, false, !priceEveryTarget
	for p := 0; p < s.procs; p++ {
		for q := p + 1; q < s.procs; q++ {
			if s.home[p] == s.home[q] {
				continue
			}
			probed = true
			if !deferred {
				s.procToEnd(p)
				s.procToEnd(q)
			}
			s.stats.MovesEvaluated++
			if s.sealed(p) && s.sealed(q) || s.probeSwap(p, q, 0) >= 0 {
				continue
			}
			if deferred {
				s.replaySwapOrder(p, q)
				deferred = false
			}
			s.swapHomes(p, q)
			s.stats.MovesCommitted++
			changed = true
		}
	}
	if deferred && probed {
		for _, procs := range s.swProcs {
			slices.Sort(procs)
		}
	}
	return changed
}

// replaySwapOrder makes the list moves swapRefine deferred: those of every
// probe up to and including the pair (p, q), in the pass's order. No swap has
// committed yet, so the homes are those the probes saw.
func (s *state) replaySwapOrder(p, q int) {
	for a := 0; a <= p; a++ {
		last := s.procs - 1
		if a == p {
			last = q
		}
		for b := a + 1; b <= last; b++ {
			if s.home[a] != s.home[b] {
				s.procToEnd(a)
				s.procToEnd(b)
			}
		}
	}
}

// swapHomes exchanges the homes of p and q and reroutes both processors'
// flows directly.
func (s *state) swapHomes(p, q int) {
	sp, sq := s.home[p], s.home[q]
	s.reattachNoReroute(p, sq)
	s.reattachNoReroute(q, sp)
	for _, fi := range s.procFlows[p] {
		s.setRoute(fi, s.directRoute(fi))
	}
	for _, fi := range s.procFlows[q] {
		s.setRoute(fi, s.directRoute(fi))
	}
}
