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
// Evaluation is incremental: per-direction width/quad pairs are memoized in
// dirW/dirQ (invalidated by setRouteRaw when the pipe's membership changes),
// pair widths in pairW, and per-switch width sums in sumW — maintained
// lazily through the dirty list so estDegree, the old O(switches) hot spot,
// is O(1) amortized. The memos are held to a from-scratch recomputation
// (estDegreeRef/localCostRef in moveref_test.go) after every operation of
// TestMoveEngineRandomEquivalence.
const (
	costHopWeight     = 1
	costQuadWeight    = 1 << 4
	costLinkWeight    = 1 << 16
	costPenaltyWeight = 1 << 28
)

// dirStatsCompute computes, for one pipe direction, the Fast_Color width
// bound and the quadratic clique load: per clique, the popcount of the AND
// between the pipe's flow set and the clique's membership bitset.
func (s *state) dirStatsCompute(from, to int) (width, quad int) {
	pi := from*s.stride + to
	if s.pipeCount[pi] == 0 {
		return 0, 0
	}
	set := s.pipes[pi]
	for _, cb := range s.cliqueBits {
		if n := set.AndCount(cb); n > 0 {
			if n > width {
				width = n
			}
			quad += n * n
		}
	}
	return width, quad
}

// dirStats is dirStatsCompute memoized in dirW/dirQ.
func (s *state) dirStats(from, to int) (width, quad int) {
	pi := from*s.stride + to
	if s.pipeCount[pi] == 0 {
		return 0, 0
	}
	if w := s.dirW[pi]; w >= 0 {
		return int(w), int(s.dirQ[pi])
	}
	width, quad = s.dirStatsCompute(from, to)
	s.dirW[pi] = int32(width)
	s.dirQ[pi] = int64(quad)
	return width, quad
}

// invalidateDir drops the direction's memo after a membership change and
// queues the unordered pair's width for a deferred sumW correction. A pair
// already queued (pairW == -1) is not queued twice.
func (s *state) invalidateDir(from, to int) {
	s.dirW[from*s.stride+to] = -1
	if from == to {
		// Self-loop pipes (possible only via pathological seed routes)
		// never contribute to a switch's degree: estDegree has always
		// summed widths over *other* switches only, so the diagonal stays
		// out of sumW.
		return
	}
	a, b := from, to
	if b < a {
		a, b = b, a
	}
	wi := a*s.stride + b
	if w := s.pairW[wi]; w >= 0 {
		s.dirty = append(s.dirty, dirtyPair{a: int32(a), b: int32(b), old: w})
		s.pairW[wi] = -1
	}
}

// flushDirty revalidates every queued pair width and folds the change into
// both endpoints' sumW. After a flush, pairW has no invalid entries and
// sumW[sw] is exactly Σ over pairs touching sw of the pair's width.
func (s *state) flushDirty() {
	if len(s.dirty) == 0 {
		return
	}
	for i := 0; i < len(s.dirty); i++ {
		d := s.dirty[i]
		a, b := int(d.a), int(d.b)
		wi := a*s.stride + b
		if s.pairW[wi] >= 0 {
			continue
		}
		wf, _ := s.dirStats(a, b)
		if wb, _ := s.dirStats(b, a); wb > wf {
			wf = wb
		}
		s.pairW[wi] = int32(wf)
		s.sumW[a] += int64(wf) - int64(d.old)
		s.sumW[b] += int64(wf) - int64(d.old)
	}
	s.dirty = s.dirty[:0]
}

// estDegree estimates the port count of a switch under current routing:
// processor ports plus the maintained width sum, O(1) amortized.
func (s *state) estDegree(sw int) int {
	s.flushDirty()
	return len(s.swProcs[sw]) + int(s.sumW[sw])
}

// penaltyOf sums constraint violations over a set of switches: degree excess
// plus processor-count excess.
func (s *state) penaltyOf(switches []int) int {
	total := 0
	for _, sw := range switches {
		if d := s.estDegree(sw); d > s.opt.MaxDegree {
			total += d - s.opt.MaxDegree
		}
		if n := len(s.swProcs[sw]); n > s.opt.MaxProcsPerSwitch {
			total += n - s.opt.MaxProcsPerSwitch
		}
	}
	return total
}

// localCostParts evaluates the weighted objective's components restricted to
// the given pipes and switches (the hop term is global: s.totalHops).
func (s *state) localCostParts(pairs [][2]int, switches []int) (pen, links, quad int) {
	for _, p := range pairs {
		wf, qf := s.dirStats(p[0], p[1])
		wb, qb := s.dirStats(p[1], p[0])
		if wb > wf {
			wf = wb
		}
		links += wf
		quad += qf + qb
	}
	return s.penaltyOf(switches), links, quad
}

// localCost evaluates the weighted objective restricted to the given pipes
// and switches. Comparing localCost before and after a tentative change
// yields the global cost delta, because contributions outside the affected
// sets are unchanged.
func (s *state) localCost(pairs [][2]int, switches []int) int {
	pen, links, quad := s.localCostParts(pairs, switches)
	return pen*costPenaltyWeight +
		links*costLinkWeight +
		quad*costQuadWeight +
		s.totalHops*costHopWeight
}

// violates reports whether a switch breaks the design constraints under the
// current width estimates.
func (s *state) violates(sw int) bool {
	if len(s.swProcs[sw]) > s.opt.MaxProcsPerSwitch {
		return true
	}
	return s.estDegree(sw) > s.opt.MaxDegree
}
