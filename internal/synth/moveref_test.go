package synth

import (
	"math"
	"slices"
	"sort"
)

// The reference move evaluator, kept as a test oracle: every candidate is
// applied, measured and undone. It holds the original closure-based
// tryMove/trySwap with their apply/undo/recost/reapply round trip, the same
// mutate-and-measure pricing of a group reroute, a pipe elimination and a
// backbone proposal (groupRouteDeltaRef, pipeEliminationDeltaRef,
// backboneDeltaRef), the affected-pair and
// affected-switch lists those measure over (addPair, addRoutePairs,
// switchesOf), the step 7-9 loops that rebuild and re-probe every candidate
// each iteration, cost functions that recompute every width and degree from
// the pipe bitsets instead of reading the count tables, and the merge loop
// that attempts every pair in full and undoes it from a snapshot. Nothing here
// is compiled into a binary: production prices candidates without applying
// them (whatif.go). TestMoveEngineRandomEquivalence drives one state through
// these entry points and a twin through probeMove/optimizeMoves/swapRefine,
// and requires equal deltas, stats, state and table values after every
// operation; TestWhatIfMatchesOracle, TestWhatIfPitfalls and FuzzMoveEngine
// hold every kind of what-if delta to this file's on the same state
// (whatif_test.go); TestMergeRefineMatchesReference does the lockstep for
// mergeRefine; the end-to-end half of the comparison is the golden corpus
// (golden_test.go), generated with this evaluator driving full runs.
//
// The oracle runs on an ordinary arena-backed state with no probe open, so
// its setRoute and reattach calls are commits. The route headers its undo
// closures capture are committed routes, which own their arena bytes until
// reset(): a rollback pops only to its own mark, and every mark is taken
// above them.

// addPair appends the canonical unordered pair (a,b) to pairs if absent.
func addPair(pairs [][2]int, a, b int) [][2]int {
	if p := pairKey(a, b); !slices.Contains(pairs, p) {
		pairs = append(pairs, p)
	}
	return pairs
}

// addRoutePairs records every pipe a route crosses.
func addRoutePairs(pairs [][2]int, r []int) [][2]int {
	for i := 1; i < len(r); i++ {
		pairs = addPair(pairs, r[i-1], r[i])
	}
	return pairs
}

// switchesOf collects the distinct endpoints of a pipe set plus any extras.
func switchesOf(pairs [][2]int, extra ...int) []int {
	var sws []int
	for _, p := range pairs {
		extra = append(extra, p[0], p[1])
	}
	for _, x := range extra {
		if !slices.Contains(sws, x) {
			sws = append(sws, x)
		}
	}
	return sws
}

// routeUndo captures route state for rollback.
type routeUndo struct {
	fi    int
	route []int
}

// directRouteAlloc is the oracle's directRoute: a freshly allocated one- or
// two-switch path, independent of the shared cached headers.
func (s *state) directRouteAlloc(fi int) []int {
	f := s.flows[fi]
	a, b := s.home[f.Src], s.home[f.Dst]
	if a == b {
		return []int{a}
	}
	return []int{a, b}
}

// tryMove evaluates moving processor p to switch `to` (flows touching p
// rerouted directly, per step 7's "assuming direct routes"), returning the
// cost delta and an undo closure. The move is left applied; the caller
// either keeps it or invokes undo.
func (s *state) tryMove(p, to int) (delta int, undo func()) {
	from := s.home[p]
	var undos []routeUndo
	var pairs [][2]int
	for _, fi := range s.procFlows[p] {
		r := s.routes[fi]
		undos = append(undos, routeUndo{fi: fi, route: r})
		pairs = addRoutePairs(pairs, r)
	}
	// Provisionally apply to discover the new direct routes' pipes.
	s.reattach(p, to)
	for _, fi := range s.procFlows[p] {
		pairs = addRoutePairs(pairs, s.routes[fi])
	}
	sws := switchesOf(pairs, from, to)
	after := s.localCostRef(pairs, sws)
	undoFn := func() {
		s.reattachNoReroute(p, from)
		for _, u := range undos {
			s.setRoute(u.fi, u.route)
		}
	}
	// Measure "before" by undoing, then reapply.
	undoFn()
	before := s.localCostRef(pairs, sws)
	s.reattach(p, to)
	s.stats.MovesEvaluated++
	return after - before, undoFn
}

// trySwap exchanges the homes of two processors, rerouting both procs'
// flows directly, and reports the cost delta with an undo closure.
func (s *state) trySwap(p, q int) (int, func()) {
	sp, sq := s.home[p], s.home[q]
	var undos []routeUndo
	var pairs [][2]int
	record := func(proc int) {
		for _, fi := range s.procFlows[proc] {
			r := s.routes[fi]
			undos = append(undos, routeUndo{fi: fi, route: r})
			pairs = addRoutePairs(pairs, r)
		}
	}
	record(p)
	record(q)
	s.reattachNoReroute(p, sq)
	s.reattachNoReroute(q, sp)
	redirect := func(proc int) {
		for _, fi := range s.procFlows[proc] {
			s.setRoute(fi, s.directRouteAlloc(fi))
		}
	}
	redirect(p)
	redirect(q)
	for _, proc := range []int{p, q} {
		for _, fi := range s.procFlows[proc] {
			pairs = addRoutePairs(pairs, s.routes[fi])
		}
	}
	sws := switchesOf(pairs, sp, sq)
	after := s.localCostRef(pairs, sws)
	undo := func() {
		s.reattachNoReroute(p, sp)
		s.reattachNoReroute(q, sq)
		// A flow touching both p and q is recorded twice with the same
		// pre-swap route; restore each flow once.
		for i := len(undos) - 1; i >= 0; i-- {
			u := undos[i]
			dup := false
			for j := i + 1; j < len(undos); j++ {
				if undos[j].fi == u.fi {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			s.setRoute(u.fi, u.route)
		}
	}
	undo()
	before := s.localCostRef(pairs, sws)
	// Reapply.
	s.reattachNoReroute(p, sq)
	s.reattachNoReroute(q, sp)
	redirect(p)
	redirect(q)
	s.stats.MovesEvaluated++
	return after - before, undo
}

// groupRouteDeltaRef is the mutate-and-measure groupRouteDelta: the group is
// routed onto cand (and its mirror), costed, and routed back.
func (s *state) groupRouteDeltaRef(g group, cand []int) int {
	pairs := addRoutePairs(nil, s.routes[g[0]])
	if g[1] >= 0 {
		pairs = addRoutePairs(pairs, s.routes[g[1]])
	}
	pairs = addRoutePairs(pairs, cand)
	sws := switchesOf(pairs)
	before := s.localCostRef(pairs, sws)
	old := [2][]int{s.routes[g[0]], nil}
	s.setRoute(g[0], cand)
	if g[1] >= 0 {
		old[1] = s.routes[g[1]]
		rev := slices.Clone(cand)
		slices.Reverse(rev)
		s.setRoute(g[1], rev)
	}
	after := s.localCostRef(pairs, sws)
	if g[1] >= 0 {
		s.setRoute(g[1], old[1])
	}
	s.setRoute(g[0], old[0])
	return after - before
}

// pipeEliminationDeltaRef is the mutate-and-measure price of one pipe
// elimination (wiPipeDepart, then wiPipeVia(m)): every flow of ids is taken
// off pipe (a,b), the batch is costed, and every route is put back.
func (s *state) pipeEliminationDeltaRef(ids []int, a, b, m int) int {
	for _, fi := range ids {
		f := s.flows[fi]
		ha, hb := s.home[f.Src], s.home[f.Dst]
		if pairKey(ha, hb) == pairKey(a, b) && (m < 0 || m == ha || m == hb) {
			return 0
		}
	}
	var pairs [][2]int
	var undos []routeUndo
	for _, fi := range ids {
		pairs = addRoutePairs(pairs, s.routes[fi])
		undos = append(undos, routeUndo{fi: fi, route: s.routes[fi]})
		f := s.flows[fi]
		ha, hb := s.home[f.Src], s.home[f.Dst]
		if pairKey(ha, hb) != pairKey(a, b) {
			pairs = addPair(pairs, ha, hb)
		} else {
			pairs = addPair(pairs, ha, m)
			pairs = addPair(pairs, m, hb)
		}
	}
	sws := switchesOf(pairs)
	before := s.localCostRef(pairs, sws)
	for _, fi := range ids {
		f := s.flows[fi]
		ha, hb := s.home[f.Src], s.home[f.Dst]
		if pairKey(ha, hb) != pairKey(a, b) {
			s.setRoute(fi, []int{ha, hb})
		} else {
			s.setRoute(fi, []int{ha, m, hb})
		}
	}
	after := s.localCostRef(pairs, sws)
	for _, u := range undos {
		s.setRoute(u.fi, u.route)
	}
	return after - before
}

// backboneDeltaRef is the mutate-and-measure price of a backbone proposal
// (wiBackbone): every flow is routed over its path and the objective is
// recomputed over every switch pair and switch, as globalCost prices it. The
// routes stay installed until the returned undo puts the old ones back.
func (s *state) backboneDeltaRef(paths [][]int) (int, func()) {
	var pairs [][2]int
	for a := range s.nsw() {
		for b := a + 1; b < s.nsw(); b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	sws := slices.Clone(s.allSwitches())
	before := s.localCostRef(pairs, sws)
	old := slices.Clone(s.routes)
	for fi, r := range paths {
		s.setRoute(fi, r)
	}
	return s.localCostRef(pairs, sws) - before, func() {
		for fi, r := range old {
			s.setRoute(fi, r)
		}
	}
}

// optimizeMovesRef is the reference step 7-9 loop: the candidate slice is
// rebuilt and re-sorted every iteration and every candidate is re-probed
// from scratch with tryMove's apply/undo/recost/reapply round trip.
func (s *state) optimizeMovesRef(i, j int) {
	if s.opt.Variant == Annealed {
		s.annealMovesRef(i, j)
	}
	for iter := 0; iter < 4*s.procs; iter++ {
		bestDelta := 0
		bestProc, bestTo := -1, -1
		candidates := append(append(s.candScratch[:0], s.swProcs[i]...), s.swProcs[j]...)
		s.candScratch = candidates
		sort.Ints(candidates)
		for _, p := range candidates {
			to := j
			if s.home[p] == j {
				to = i
			}
			if !s.balancedAfterMove(p, to, i, j) {
				continue
			}
			delta, undo := s.tryMove(p, to)
			undo()
			if delta < bestDelta {
				bestDelta = delta
				bestProc, bestTo = p, to
			}
		}
		if bestProc == -1 {
			return
		}
		s.reattach(bestProc, bestTo)
		s.stats.MovesCommitted++
		if s.opt.Variant != NoBestRoute {
			s.bestRoute([]int{i, j}, []int{i, j})
		}
	}
}

// annealMovesRef rebuilds the unsorted candidate slice on every step, even
// when the step was a balance skip and nothing changed.
func (s *state) annealMovesRef(i, j int) {
	temp := float64(annealTemp)
	for step := 0; step < annealSteps; step++ {
		candidates := append(append(s.candScratch[:0], s.swProcs[i]...), s.swProcs[j]...)
		s.candScratch = candidates
		if len(candidates) == 0 {
			return
		}
		p := candidates[s.rng.Intn(len(candidates))]
		to := j
		if s.home[p] == j {
			to = i
		}
		if !s.balancedAfterMove(p, to, i, j) {
			temp *= annealCooling
			continue
		}
		delta, undo := s.tryMove(p, to)
		accept := delta < 0 || s.rng.Float64() < math.Exp(-float64(delta)/temp)
		if accept {
			s.stats.MovesCommitted++
			s.bestRoute([]int{i, j}, []int{i, j})
		} else {
			s.stats.MovesRejected++
			undo()
		}
		temp *= annealCooling
	}
}

// swapRefineRef is swapRefine over trySwap.
func (s *state) swapRefineRef() bool {
	changed := false
	for p := 0; p < s.procs; p++ {
		for q := p + 1; q < s.procs; q++ {
			if s.home[p] == s.home[q] {
				continue
			}
			delta, undo := s.trySwap(p, q)
			if delta < 0 {
				s.stats.MovesCommitted++
				changed = true
			} else {
				undo()
			}
		}
	}
	return changed
}

// dirStats reads one pipe direction's Fast_Color width bound — the most flows
// any one clique has on it — and its quadratic clique load off the tables.
func (s *state) dirStats(from, to int) (width, quad int) {
	pi := from*s.stride + to
	return int(s.dirW[pi]), int(s.dirQ[pi])
}

// dirStatsCompute computes, for one pipe direction, the Fast_Color width
// bound and the quadratic clique load from the pipe's flow set: per clique,
// the popcount of the AND with the clique's membership bitset. It is what the
// count tables must equal after every mutation.
func (s *state) dirStatsCompute(from, to int) (width, quad int) {
	set := s.pipes[from*s.stride+to]
	if set == nil {
		return 0, 0
	}
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

// estDegreeRef is the pre-incremental estDegree: a scan over every other
// switch with both direction widths recomputed from the pipe bitsets.
func (s *state) estDegreeRef(sw int) int {
	d := len(s.swProcs[sw])
	for t := range s.swProcs {
		if t == sw {
			continue
		}
		wf, _ := s.dirStatsCompute(sw, t)
		if wb, _ := s.dirStatsCompute(t, sw); wb > wf {
			wf = wb
		}
		d += wf
	}
	return d
}

// penaltyOfRef sums the constraint excess of a set of switches, their
// degrees rebuilt by estDegreeRef. Over every switch it is the penalty total.
func (s *state) penaltyOfRef(switches []int) int {
	total := 0
	for _, sw := range switches {
		if d := s.estDegreeRef(sw); d > s.opt.MaxDegree {
			total += d - s.opt.MaxDegree
		}
		if n := len(s.swProcs[sw]); n > s.opt.MaxProcsPerSwitch {
			total += n - s.opt.MaxProcsPerSwitch
		}
	}
	return total
}

// localCostRef is the weighted objective restricted to the given pipes and
// switches (the hop term is global: s.totalHops), evaluated the
// pre-incremental way: direction stats recomputed per pair, degrees rebuilt
// by scanning every switch pair. Over every pair and switch it is
// globalCost.
func (s *state) localCostRef(pairs [][2]int, switches []int) int {
	links, quad := 0, 0
	for _, p := range pairs {
		wf, qf := s.dirStatsCompute(p[0], p[1])
		wb, qb := s.dirStatsCompute(p[1], p[0])
		if wb > wf {
			wf = wb
		}
		links += wf
		quad += qf + qb
	}
	return s.penaltyOfRef(switches)*costPenaltyWeight +
		links*costLinkWeight +
		quad*costQuadWeight +
		s.totalHops*costHopWeight
}

// stateSnapshot captures processor placement and all routes: the undo of the
// reference merge loop, which production replaced with the probe journal.
type stateSnapshot struct {
	home   []int
	routes [][]int
}

func (s *state) snapshotInto(snap *stateSnapshot) {
	snap.home = append(snap.home[:0], s.home...)
	snap.routes = append(snap.routes[:0], s.routes...)
}

func (s *state) restore(snap stateSnapshot) {
	for p, sw := range snap.home {
		if s.home[p] != sw {
			s.reattachNoReroute(p, sw)
		}
	}
	for fi, r := range snap.routes {
		s.setRoute(fi, r)
	}
}

// mergeAttempt is one pair the reference merge loop tried: what portBound
// said of it beforehand, and whether the merge was kept.
type mergeAttempt struct {
	a, b, bound int
	kept        bool
}

// mergeRefineRef is the reference merge loop: every pair that fits the
// processor budget is attempted in full — snapshot, move, Best_Route,
// eliminatePipes — and restored from the snapshot when it cannot be kept.
func (s *state) mergeRefineRef() (tried []mergeAttempt) {
	var snap stateSnapshot
	for a := range s.swProcs {
		if len(s.swProcs[a]) == 0 {
			continue
		}
		for b := range s.swProcs {
			if a == b || len(s.swProcs[b]) == 0 {
				continue
			}
			if len(s.swProcs[a])+len(s.swProcs[b]) > s.opt.MaxProcsPerSwitch {
				continue
			}
			at := mergeAttempt{a: a, b: b, bound: s.portBound(a, b)}
			s.snapshotInto(&snap)
			procs := append([]int(nil), s.swProcs[b]...)
			before := s.consolidationScore()
			for _, p := range procs {
				s.reattach(p, a)
			}
			if s.opt.Variant != NoBestRoute {
				s.bestRoute([]int{a}, nil)
				s.eliminatePipes()
			}
			if !s.anyViolation() && s.consolidationScore() < before {
				s.stats.GlobalMoves += len(procs)
				at.kept = true
			} else {
				s.restore(snap)
			}
			tried = append(tried, at)
		}
	}
	return tried
}
