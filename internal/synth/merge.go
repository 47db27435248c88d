package synth

import "sort"

// costSwitchWeight prices one switch relative to links when deciding whether
// to consolidate two switches. The paper's floorplan model gives a 5-port
// switch roughly the area of a couple of tile-crossing links, and its
// objective minimizes "the required number of links and switches".
const costSwitchWeight = 2 * costLinkWeight

// consolidationScore is the merge objective: the global weighted cost plus a
// price per live switch.
func (s *state) consolidationScore() int { return s.globalCost() + s.live*costSwitchWeight }

// mergeRefine tries to consolidate switches once the constraints are met:
// for every ordered pair, move all of one switch's processors onto the other
// (rerouting their flows directly, then locally re-optimizing routes) and
// keep the merge if the consolidation score strictly improves without
// introducing violations. This is what turns a legal but fragmented
// all-singleton solution into the paper's multi-processor switches.
//
// Most pairs cannot be kept whatever Best_Route finds: when portBound already
// exceeds the degree budget the merged switch violates it under every
// routing, so the attempt is skipped. A failed attempt — skipped or rolled
// back — leaves b's processor list in ascending order, which later split
// shuffles read.
func (s *state) mergeRefine() bool {
	changed := false
	// A merge keeps or rolls back as the walk goes, so it steps through
	// the live set as it stands (nextIn); a switch with processors is live.
	sws := s.walkSet()
	for a := nextIn(sws, 0); a >= 0; a = nextIn(sws, a+1) {
		if len(s.swProcs[a]) == 0 {
			continue
		}
		for b := nextIn(sws, 0); b >= 0; b = nextIn(sws, b+1) {
			if a == b || len(s.swProcs[b]) == 0 {
				continue
			}
			if len(s.swProcs[a])+len(s.swProcs[b]) > s.opt.MaxProcsPerSwitch {
				continue
			}
			s.stats.MergesTried++
			if s.portBound(a, b) > s.opt.MaxDegree {
				s.stats.MergesSkipped++
				sort.Ints(s.swProcs[b])
				continue
			}
			procs := append(s.mergeProcs[:0], s.swProcs[b]...)
			s.mergeProcs = procs
			before := s.consolidationScore()
			m := s.beginProbe()
			for _, p := range procs {
				s.reattach(p, a)
			}
			if s.opt.Variant != NoBestRoute {
				s.touchBuf[0] = a
				s.bestRoute(s.touchBuf[:1], nil)
				s.eliminatePipes()
			}
			if !s.anyViolation() && s.consolidationScore() < before {
				s.keep()
				s.stats.GlobalMoves += len(procs)
				changed = true
			} else {
				s.rollback(m)
				sort.Ints(s.swProcs[b])
			}
		}
	}
	return changed
}
