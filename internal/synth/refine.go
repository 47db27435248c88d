package synth

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
		delta := s.groupRouteDelta(g, cand)
		// Accept improvements and plateaus; accept small regressions
		// in the first quarter of the budget.
		limit := 0
		if step < budget/4 {
			limit = costQuadWeight * 4
		}
		if delta <= limit {
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
func (s *state) swapRefine() bool {
	changed := false
	for p := 0; p < s.procs; p++ {
		for q := p + 1; q < s.procs; q++ {
			if s.home[p] == s.home[q] {
				continue
			}
			if s.probeSwap(p, q, 0) < 0 {
				s.swapHomes(p, q)
				s.stats.MovesCommitted++
				changed = true
			}
		}
	}
	return changed
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
