package synth

// group is a flow ID plus optionally its mirrored reverse flow's ID (-1 if
// the pair is rerouted alone).
type group [2]int

// bestRoute implements the Appendix's Best_Route procedure, generalized:
// every flow whose current route touches one of the `touch` switches is
// offered its direct path and one-intermediate indirect paths through each
// switch in `via`. A nil via selects, per flow, the switches that already
// exchange traffic with either endpoint — rerouting through anything else
// would create two pipes to save one and can never help. When the
// reverse flow exists and mirrors the forward route, the pair is rerouted
// together — the paper's exchanges are symmetric (e.g. Figure 5(e) redirects
// (4,13) and (13,4) jointly), and moving only one direction cannot free a
// full-duplex link. Improving alternatives — fewer constraint violations,
// then fewer estimated links, then lower congestion load, then fewer hops —
// are committed. Passes repeat until no route improves.
func (s *state) bestRoute(touch, via []int) {
	var candBuf [3]int
	for pass := 0; pass < 3; pass++ {
		improved := false
		for fi := range s.flows {
			cur := s.routes[fi]
			touched := false
			for _, sw := range touch {
				if routeTouches(cur, sw) {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			f := s.flows[fi]
			a, b := s.home[f.Src], s.home[f.Dst]
			if a == b {
				continue
			}
			// Pair with the mirrored reverse flow when present.
			g := group{fi, -1}
			if ri := s.revID[fi]; ri >= 0 && fi < ri && isMirror(s.routes[ri], cur) {
				g[1] = ri
			}
			vias := via
			if vias == nil {
				vias = s.trafficNeighbors(a, b)
			}
			bestDelta := 0
			bestVia := -2 // -1 selects the direct path; -2 = keep current
			cand := candBuf[:2]
			cand[0], cand[1] = a, b
			if !equalRoute(cand, cur) {
				if delta := s.groupRouteDelta(g, cand); delta < bestDelta {
					bestDelta, bestVia = delta, -1
				}
			}
			for _, m := range vias {
				if m == a || m == b {
					continue
				}
				cand = candBuf[:3]
				cand[0], cand[1], cand[2] = a, m, b
				if equalRoute(cand, cur) {
					continue
				}
				if delta := s.groupRouteDelta(g, cand); delta < bestDelta {
					bestDelta, bestVia = delta, m
				}
			}
			if bestVia != -2 {
				cand = candBuf[:2]
				cand[0], cand[1] = a, b
				if bestVia >= 0 {
					cand = candBuf[:3]
					cand[0], cand[1], cand[2] = a, bestVia, b
				}
				s.applyGroupRoute(g, cand)
				s.stats.Reroutes += groupLen(g)
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}

func groupLen(g group) int {
	if g[1] >= 0 {
		return 2
	}
	return 1
}

// trafficNeighbors lists switches that currently exchange traffic with a or
// b, in ascending order, reusing the state's scratch buffer.
func (s *state) trafficNeighbors(a, b int) []int {
	out := s.nbrScratch[:0]
	for m := range s.swProcs {
		if m == a || m == b {
			continue
		}
		if s.pipeUsed(a, m) || s.pipeUsed(m, a) || s.pipeUsed(b, m) || s.pipeUsed(m, b) {
			out = append(out, m)
		}
	}
	s.nbrScratch = out
	return out
}

// isMirror reports whether a equals b walked backwards.
func isMirror(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[len(b)-1-i] {
			return false
		}
	}
	return true
}

// applyGroupRoute routes the group's first flow along cand and any paired
// reverse flow along the mirror of cand. cand may be caller scratch: it is
// persisted into shared headers or the arena.
func (s *state) applyGroupRoute(g group, cand []int) {
	s.setRoute(g[0], s.persistRoute(cand))
	if g[1] >= 0 {
		s.setRoute(g[1], s.persistReversed(cand))
	}
}

// groupRouteDelta is the cost change of rerouting a flow (and its mirrored
// reverse, if grouped) onto cand. cand is not retained.
func (s *state) groupRouteDelta(g group, cand []int) int {
	s.wiLeave(g[0])
	for i := 1; i < len(cand); i++ {
		s.wiJoin(g[0], cand[i-1], cand[i])
	}
	if g[1] >= 0 {
		s.wiLeave(g[1])
		for i := len(cand) - 1; i > 0; i-- {
			s.wiJoin(g[1], cand[i], cand[i-1])
		}
	}
	return s.wiDelta(-1, -1)
}

// eliminatePipes targets degree violations directly: for every switch over
// its degree budget, try to empty one of its pipes entirely by rerouting
// every flow that crosses the pipe — endpoint flows and through-flows alike
// — onto a direct path or through a common intermediate. Returns true if
// any elimination was committed.
func (s *state) eliminatePipes() bool {
	changed := false
	for sw := range s.swProcs {
		if s.estDegree(sw) <= s.opt.MaxDegree {
			continue
		}
		for other := range s.swProcs {
			if other == sw {
				continue
			}
			ids := s.pipeFlowIDs(sw, other)
			if len(ids) == 0 {
				continue
			}
			for m := -1; m < len(s.swProcs); m++ {
				if m == sw || m == other {
					continue
				}
				if s.tryPipeElimination(ids, sw, other, m) {
					changed = true
					break
				}
			}
		}
	}
	return changed
}

// pipeFlowIDs lists, into idScratch, the flows on either direction of pipe
// (a,b) in ascending flow order (IDs ascend in Flow.Less order).
func (s *state) pipeFlowIDs(a, b int) []int {
	fwd, bwd := s.pipeAt(a, b), s.pipeAt(b, a)
	ids := s.idScratch[:0]
	if fwd != nil {
		ids = fwd.Elems(ids)
	}
	if bwd != nil {
		n := len(ids)
		bwd.ForEach(func(fi int) {
			if fwd == nil || !fwd.Has(fi) {
				ids = append(ids, fi)
			}
		})
		if n > 0 && len(ids) > n {
			ids = mergeSortedInts(ids, n)
		}
	}
	s.idScratch = ids
	return ids
}

// mergeSortedInts merges the two sorted runs ids[:n] and ids[n:] in place.
func mergeSortedInts(ids []int, n int) []int {
	for i := n; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// tryPipeElimination reroutes every flow crossing pipe (a,b): directly when
// the direct path avoids the pipe, otherwise via intermediate m (m == -1
// allows only direct replacements). The batch is committed only if the
// weighted objective improves.
func (s *state) tryPipeElimination(ids []int, a, b, m int) bool {
	if s.pipeEliminationDelta(ids, a, b, m) >= 0 {
		return false
	}
	for _, fi := range ids {
		if ha, hb, direct := s.offPipe(fi, a, b); direct {
			s.setRoute(fi, s.directPair(ha, hb))
		} else {
			s.setRoute(fi, s.viaRoute(ha, m, hb))
		}
	}
	s.stats.Reroutes += len(ids)
	return true
}

// offPipe returns the home switches of fi's endpoints and whether the direct
// path between them avoids pipe (a,b).
func (s *state) offPipe(fi, a, b int) (ha, hb int, direct bool) {
	f := s.flows[fi]
	ha, hb = s.home[f.Src], s.home[f.Dst]
	return ha, hb, pairKey(ha, hb) != pairKey(a, b)
}

// pipeEliminationDelta is the cost change tryPipeElimination's batch would
// cause, or 0 when some flow cannot leave the pipe.
func (s *state) pipeEliminationDelta(ids []int, a, b, m int) int {
	for _, fi := range ids {
		if ha, hb, direct := s.offPipe(fi, a, b); !direct && (m < 0 || m == ha || m == hb) {
			return 0 // this flow cannot leave the pipe
		}
	}
	for _, fi := range ids {
		s.wiLeave(fi)
		if ha, hb, direct := s.offPipe(fi, a, b); direct {
			s.wiJoin(fi, ha, hb)
		} else {
			s.wiJoin(fi, ha, m)
			s.wiJoin(fi, m, hb)
		}
	}
	return s.wiDelta(-1, -1)
}

// directPair is the two-switch route [a, b] as a shared header.
func (s *state) directPair(a, b int) []int {
	if a == b {
		// Pathological but possible via seed-replayed routes that revisit
		// their origin: mirror the reference's two-element [a, a] exactly
		// (cachedDirect would collapse it to the one-switch route).
		r := s.arena.alloc(2)
		r[0], r[1] = a, b
		return r
	}
	return s.cachedDirect(a, b)
}

// viaRoute is the one-intermediate route [a, m, b], arena-backed.
func (s *state) viaRoute(a, m, b int) []int {
	r := s.arena.alloc(3)
	r[0], r[1], r[2] = a, m, b
	return r
}

func equalRoute(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
