package synth

import (
	"math/bits"

	"repro/internal/model"
)

// group is a flow ID plus optionally its mirrored reverse flow's ID (-1 if
// the pair is rerouted alone).
type group [2]int

// bestRoute implements the Appendix's Best_Route procedure, generalized:
// every flow whose current route touches one of the `touch` switches (nil:
// every flow) is offered its direct path and one-intermediate indirect paths
// through each switch in `via`. A nil via selects, per flow, the switches
// that already exchange traffic with either endpoint — rerouting through
// anything else would create two pipes to save one and can never help. When
// the reverse flow exists and mirrors the forward route, the pair is
// rerouted together — the paper's exchanges are symmetric (e.g. Figure 5(e)
// redirects (4,13) and (13,4) jointly), and moving only one direction cannot
// free a full-duplex link. Improving alternatives — fewer constraint
// violations, then fewer estimated links, then lower congestion load, then
// fewer hops — are committed. Passes repeat until no route improves.
//
// A pass visits, in flow order, only the flows touchedFlows collects at its
// start, and checks each route again on the visit: committing a pair moves
// its later mirror, which may then touch no switch of the list.
func (s *state) bestRoute(touch, via []int) {
	var candBuf [3]int
	for pass := 0; pass < 3; pass++ {
		improved := false
		visit := s.touchedFlows(touch)
		for fi := range s.flows {
			if visit != nil && !visit.Has(fi) {
				continue
			}
			cur := s.routes[fi]
			touched := touch == nil
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
			// The group leaves its route once; the direct path and each via
			// are joins on that frozen departure.
			departed := false
			bestDelta := 0
			bestVia := -2 // -1 selects the direct path; -2 = keep current
			cand := candBuf[:2]
			cand[0], cand[1] = a, b
			if !equalRoute(cand, cur) {
				s.wiGroupDepart(g)
				departed = true
				if delta := s.wiGroupRoute(g, cand, bestDelta); delta < bestDelta {
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
				if !departed {
					s.wiGroupDepart(g)
					departed = true
				}
				if delta := s.wiGroupRoute(g, cand, bestDelta); delta < bestDelta {
					bestDelta, bestVia = delta, m
				}
			}
			if departed {
				s.wiRelease()
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

// touchedFlows collects, into flowScratch, the flows whose route crosses a
// pipe at one of the touch switches: the union of their pipe sets, both
// directions, over the live switches (a switch at a used pipe is live). A
// route through sw that crosses no pipe at sw is sw alone, a local flow,
// which bestRoute never reroutes. It returns nil, every flow, for a nil
// touch list and under priceEveryTarget, whose full scan the union is held
// to.
func (s *state) touchedFlows(touch []int) model.BitSet {
	if touch == nil || priceEveryTarget {
		return nil
	}
	if len(s.flowScratch) < s.bsWords {
		s.flowScratch = make(model.BitSet, s.bsWords)
	}
	u := s.flowScratch
	u.Reset()
	for _, sw := range touch {
		for w, word := range s.walkSet() {
			for ; word != 0; word &= word - 1 {
				o := w<<6 | bits.TrailingZeros64(word)
				if out := s.pipeAt(sw, o); out != nil {
					u.Or(out)
				}
				if in := s.pipeAt(o, sw); in != nil {
					u.Or(in)
				}
			}
		}
	}
	return u
}

func groupLen(g group) int {
	if g[1] >= 0 {
		return 2
	}
	return 1
}

// trafficNeighbors lists switches that currently exchange traffic with a or
// b, in ascending order, reusing the state's scratch buffer. A switch with a
// used pipe is live, so it walks the live set's words.
func (s *state) trafficNeighbors(a, b int) []int {
	out := s.nbrScratch[:0]
	for w, word := range s.walkSet() {
		for ; word != 0; word &= word - 1 {
			m := w<<6 | bits.TrailingZeros64(word)
			if m == a || m == b {
				continue
			}
			if s.pipeUsed(a, m) || s.pipeUsed(m, a) || s.pipeUsed(b, m) || s.pipeUsed(m, b) {
				out = append(out, m)
			}
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

// wiGroupDepart states the group's flows leaving their routes and freezes the
// family of the group's reroutes.
func (s *state) wiGroupDepart(g group) {
	s.wiLeave(g[0])
	if g[1] >= 0 {
		s.wiLeave(g[1])
	}
	s.wiFreeze(-1)
}

// wiGroupRoute prices routing the group's first flow along cand, and any
// paired reverse flow along its mirror, on the frozen departure, bound as
// wiDeltaCand. cand is not retained.
func (s *state) wiGroupRoute(g group, cand []int, bound int) int {
	for i := 1; i < len(cand); i++ {
		s.wiJoinCand(g[0], cand[i-1], cand[i])
	}
	if g[1] >= 0 {
		for i := len(cand) - 1; i > 0; i-- {
			s.wiJoinCand(g[1], cand[i], cand[i-1])
		}
	}
	return s.wiDeltaCand(-1, bound)
}

// groupRouteDelta is the cost change of rerouting a flow (and its mirrored
// reverse, if grouped) onto cand: a family of one.
func (s *state) groupRouteDelta(g group, cand []int) int {
	s.wiGroupDepart(g)
	d := s.wiGroupRoute(g, cand, noBound)
	s.wiRelease()
	return d
}

// eliminatePipes targets degree violations directly: for every switch over
// its degree budget, try to empty one of its pipes entirely by rerouting
// every flow that crosses the pipe — endpoint flows and through-flows alike
// — onto a direct path or through a common intermediate. Returns true if
// any elimination was committed.
func (s *state) eliminatePipes() bool {
	changed := false
	// An elimination commits as the walk goes, so both loops step through
	// the live set as it stands (nextIn): a switch over its budget, or at
	// the end of a used pipe, is live.
	sws := s.walkSet()
	for sw := nextIn(sws, 0); sw >= 0; sw = nextIn(sws, sw+1) {
		if s.estDegree(sw) <= s.opt.MaxDegree {
			continue
		}
		for other := nextIn(sws, 0); other >= 0; other = nextIn(sws, other+1) {
			if other == sw {
				continue
			}
			ids := s.pipeFlowIDs(sw, other)
			if len(ids) == 0 {
				continue
			}
			// The pipe's flows leave and take their direct paths once; each
			// intermediate adds only the joins of the flows that need it. A
			// dead intermediate prices as the lowest dead one does.
			s.wiPipeDepart(ids, sw, other)
			won := -2
			if s.wiPipeVia(-1, 0) < 0 {
				won = -1
			} else {
				targets, _ := s.twinTargets()
				for _, m := range targets {
					if m != sw && m != other && s.wiPipeVia(m, 0) < 0 {
						won = m
						break
					}
				}
			}
			s.wiRelease()
			if won != -2 {
				s.emptyPipe(ids, sw, other, won)
				changed = true
			}
		}
	}
	return changed
}

// pipeFlowIDs lists, into idScratch, the flows on either direction of pipe
// (a,b) in ascending flow order (IDs ascend in Flow.Less order).
func (s *state) pipeFlowIDs(a, b int) []int {
	ids := s.idScratch[:0]
	if fwd := s.pipeAt(a, b); fwd != nil {
		ids = fwd.Elems(ids)
	}
	if bwd := s.pipeAt(b, a); bwd != nil {
		// A simple route crosses the pipe one way at most: no flow is in both.
		ids = mergeSortedInts(bwd.Elems(ids), len(ids))
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

// wiPipeDepart states every flow crossing pipe (a,b) leaving its route and
// taking its direct path where that avoids the pipe, and freezes the family
// of the pipe's eliminations. The flows whose endpoints sit on a and b go to
// wi.via: only an intermediate takes them off the pipe.
func (s *state) wiPipeDepart(ids []int, a, b int) {
	via := s.wi.via[:0]
	for _, fi := range ids {
		s.wiLeave(fi)
		if ha, hb, direct := s.offPipe(fi, a, b); direct {
			s.wiJoin(fi, ha, hb)
		} else {
			via = append(via, fi)
		}
	}
	s.wi.via = via
	s.wiFreeze(-1)
}

// wiPipeVia prices emptying the frozen pipe through intermediate m, which is
// neither of its switches (-1 allows only direct paths), bound as
// wiDeltaCand, or returns 0 when some flow cannot leave the pipe.
func (s *state) wiPipeVia(m, bound int) int {
	if m < 0 && len(s.wi.via) > 0 {
		return 0
	}
	for _, fi := range s.wi.via {
		f := s.flows[fi]
		ha, hb := s.home[f.Src], s.home[f.Dst]
		s.wiJoinCand(fi, ha, m)
		s.wiJoinCand(fi, m, hb)
	}
	return s.wiDeltaCand(-1, bound)
}

// emptyPipe commits an elimination wiPipeVia priced: every flow crossing pipe
// (a,b) goes direct when the direct path avoids the pipe, otherwise via m.
func (s *state) emptyPipe(ids []int, a, b, m int) {
	for _, fi := range ids {
		if ha, hb, direct := s.offPipe(fi, a, b); direct {
			s.setRoute(fi, s.cachedDirect(ha, hb))
		} else {
			s.setRoute(fi, s.viaRoute(ha, m, hb))
		}
	}
	s.stats.Reroutes += len(ids)
}

// offPipe returns the home switches of fi's endpoints and whether the direct
// path between them avoids pipe (a,b).
func (s *state) offPipe(fi, a, b int) (ha, hb int, direct bool) {
	f := s.flows[fi]
	ha, hb = s.home[f.Src], s.home[f.Dst]
	return ha, hb, pairKey(ha, hb) != pairKey(a, b)
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
