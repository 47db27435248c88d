// Package synth implements the paper's design methodology (Section 3 and the
// Appendix): given a well-behaved communication pattern, it constructs a
// minimal, low-contention network topology by recursive bisection.
//
// Starting from a single "megaswitch" crossbar connecting all processors,
// switches that violate the design constraints (maximum node degree) are
// repeatedly split in two. Each split distributes processors between the
// halves with improving (optionally annealed) moves, reroutes flows over
// direct or one-intermediate indirect paths (Best_Route), and estimates pipe
// widths with the Fast_Color clique-intersection bound. A global refinement
// pass then polishes placement and routes across all switches. When every
// switch satisfies the constraints, pipe widths are finalized by formal
// conflict-graph coloring, which also assigns each flow a physical link per
// hop — guaranteeing, by construction, that the potential communication
// contention set C and the network resource conflict set R do not intersect
// (Theorem 1).
package synth

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
)

// Constraints are the design constraints of Section 3.4.
type Constraints struct {
	// MaxDegree bounds the port count of every switch (processor ports
	// plus link ports). The paper uses 5 to match mesh/torus routers.
	MaxDegree int
	// MaxProcsPerSwitch bounds processors per switch; the tile floorplan
	// shares one switch among at most the four tiles meeting at a corner.
	MaxProcsPerSwitch int
}

// Variant selects the paper's method (Full, the zero value) or one ablation
// of it (DESIGN.md §4): NoBestRoute skips indirect-path optimization,
// NoGlobalRefine the cross-switch polish, and Annealed precedes each split's
// greedy descent with annealMoves.
type Variant int

const (
	Full Variant = iota
	NoBestRoute
	NoGlobalRefine
	Annealed
)

// Valid reports whether v is a named variant.
func (v Variant) Valid() bool { return v >= Full && v <= Annealed }

// Options configures a synthesis run.
type Options struct {
	Constraints
	// Seed makes the run reproducible.
	Seed int64
	// Restarts runs the whole synthesis several times with derived seeds
	// and keeps the best result (default 4).
	Restarts int
	// Workers bounds the goroutines the restarts fan out over: 0 selects
	// GOMAXPROCS, 1 forces the serial path. Every worker count produces
	// bit-identical results — each restart owns a derived-seed RNG and
	// private state, and the reduction scans restart indices in order.
	Workers int
	// Variant selects the method or one ablation of it (default Full).
	Variant Variant
	// SeedDesign, when non-nil, warm-starts the configured restarts from a
	// prior design's switch tree instead of the root megaswitch (see
	// SeedDesign). Extension restarts — the ones drawn only while no run
	// has met the constraints — always start cold, so a bad seed degrades
	// nothing but speed. Whether a restart is seeded depends only on its
	// index, so best-of selection stays byte-deterministic across worker
	// counts.
	SeedDesign *SeedDesign
	// Obs receives telemetry: per-restart spans plus the synth.* and
	// coloring.* counters, emitted once from the deterministic restart
	// fold so counter values are identical for every Workers setting.
	// Nil disables telemetry at zero cost.
	Obs obs.Observer
}

// Normalized returns the options with every zero field replaced by its
// documented default.
func (o Options) Normalized() Options {
	if o.MaxDegree == 0 {
		o.MaxDegree = 5
	}
	if o.MaxProcsPerSwitch == 0 {
		o.MaxProcsPerSwitch = 4
	}
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	return o
}

// Stats counts the work a synthesis run performed.
type Stats struct {
	Splits         int
	MovesEvaluated int
	MovesCommitted int
	// MovesRejected counts annealing moves tried and rolled back by the
	// temperature schedule (zero under pure greedy descent).
	MovesRejected int
	Reroutes      int
	GlobalMoves   int
	// MergesTried counts the switch pairs mergeRefine considered (those that
	// fit one switch's processor budget); MergesSkipped the ones among them
	// whose placement alone proves the merged switch over its port budget,
	// so no routing was attempted.
	MergesTried   int
	MergesSkipped int
	Rounds        int
	RestartsRun   int
	// SeededRestarts counts the restarts that replayed a SeedDesign switch
	// tree instead of bisecting from the megaswitch.
	SeededRestarts int
	Repairs        int
	// MaxDepth is the deepest bisection level any switch reached (the
	// root megaswitch is level 0; each split puts the new half one level
	// below the switch it came from).
	MaxDepth int
	// FastColorGap sums, over every finalized pipe direction, the formal
	// coloring's width minus the Fast_Color estimate — how optimistic the
	// partitioning-time width bound was.
	FastColorGap int
	// DSATUR counts formal colourings: one per used pipe direction per
	// round (the coloring.dsatur counter).
	DSATUR int
}

// Add merges another run's counts — a restart's into its run's totals, a
// hierarchy level's into the design's: sums everywhere except MaxDepth,
// which takes the maximum.
func (s *Stats) Add(t Stats) {
	s.Splits += t.Splits
	s.MovesEvaluated += t.MovesEvaluated
	s.MovesCommitted += t.MovesCommitted
	s.MovesRejected += t.MovesRejected
	s.Reroutes += t.Reroutes
	s.GlobalMoves += t.GlobalMoves
	s.MergesTried += t.MergesTried
	s.MergesSkipped += t.MergesSkipped
	s.Rounds += t.Rounds
	s.RestartsRun += t.RestartsRun
	s.SeededRestarts += t.SeededRestarts
	s.Repairs += t.Repairs
	if t.MaxDepth > s.MaxDepth {
		s.MaxDepth = t.MaxDepth
	}
	s.FastColorGap += t.FastColorGap
	s.DSATUR += t.DSATUR
}

// state is the mutable partitioning state. Switches are dense indices; the
// pipe graph is implicitly complete (every split connects the new switch to
// the split switch and to all of its neighbors, so completeness is
// invariant), with unused pipes carrying no flows and hence zero estimated
// width.
//
// Flows are interned into dense IDs (model.FlowIndex) once per pattern, so
// the whole inner loop — pipe flow sets, clique membership, the contention
// relation C, route and reverse-flow lookup — runs on array indexing and
// BitSet word arithmetic instead of map hashing. IDs ascend in Flow.Less
// order, which keeps every iteration order (and therefore every RNG draw
// and the serialized output) identical to the historical map-and-sort
// implementation.
type state struct {
	*kernel // immutable per-pattern data, shared across restarts

	home    []int   // processor -> switch
	swProcs [][]int // switch -> processors
	swDepth []int   // switch -> bisection level (root megaswitch = 0)
	routes  [][]int // flow ID -> switch path (immutable headers)
	// cross counts, per processor, its flows whose route is longer than one
	// switch (setRouteRaw keeps it); zero seals the processor (sealed).
	cross []int32

	// Pipes and the incremental cost caches are dense stride×stride
	// matrices over switch indices (grown as splits add switches), indexed
	// at from*stride+to for directions and at a*stride+b with a<b for
	// unordered pairs: pipes is the direction's flow-ID set, rowAt the
	// direction's row of per-clique flow counts in the counts slab (1 + its
	// offset; 0 = never used, all counts zero),
	// dirW/dirQ the row's maximum (the Fast_Color width) and sum of squares
	// (the quad load), pairW the larger of a pair's two direction widths and
	// sumW the per-switch sum of pair widths that makes estDegree a read.
	// setRouteRaw (engine.go) keeps all of them exact; cost.go reads them.
	stride int
	pipes  []model.BitSet
	rowAt  []int32
	counts []int32
	dirW   []int32
	dirQ   []int64
	pairW  []int32
	sumW   []int64

	// Undo journal, open while probing, and route arena (engine.go).
	journal []journalEntry
	probing bool
	arena   routeArena
	wi      whatIf // the what-if evaluator's scratch (whatif.go)

	// Shared immutable direct-route headers: selfRoute[a] = [a],
	// pairRoute[a*stride+b] = [a,b]; contents depend only on the indices,
	// so they survive pooling and are remapped by growStride.
	selfRoute [][]int
	pairRoute [][]int

	// The objective's totals (cost.go), kept exact by the raw mutators
	// (engine.go): totalHops the routes' hop count, penalty the switches'
	// excess summed, links the sum of pairW, quad the sum of dirQ, and live
	// the count of switches that are not dead.
	totalHops int
	penalty   int
	links     int
	quad      int
	live      int
	// liveSet holds the switches that are not dead (bit sw), sized to the
	// stride; only tally writes it, beside live. The switch scans walk it
	// (walkSet) instead of every index.
	liveSet model.BitSet

	src   *drawSource
	rng   *rand.Rand
	opt   Options
	stats *Stats
	// bsWords is the word capacity every pooled pipe bitset has (the widest
	// flow universe this state has served); reset() drops the sets when a
	// new kernel needs more, and setRouteRaw creates new ones at it.
	bsWords int
	// seedFast marks a warm-started state whose trace structure is
	// identical to its seed's and whose replay left no estimated
	// violations: partition() skips the globalRefine polish once (the
	// assignment is already a refined fixpoint; only routing needed
	// recovery). Cleared on use so later rounds refine normally.
	seedFast bool
	// ctx, when non-nil, is polled at bisection boundaries so a cancelled
	// request abandons the partitioning loop promptly. The checks read
	// ctx.Err() only — they never touch the RNG or iteration order, so a
	// live but never-cancelled context leaves the run byte-identical.
	ctx context.Context

	// Reusable scratch for cost evaluation; helpers fully consume them
	// before returning (no nesting), so one buffer each suffices.
	idScratch    []int
	nbrScratch   []int
	flowScratch  model.BitSet // bestRoute's flows to visit (touchedFlows)
	candScratch  []int
	liveScratch  []int        // liveSwitches
	twinScratch  []int        // twinTargets
	everySet     model.BitSet // walkSet's every-index set under priceEveryTarget
	splitScratch []int        // split's shuffle copy
	allProcs     []int        // backs swProcs[0] after reset
	touchBuf     [2]int       // bestRoute touch/via list of split and merge callers
	mergeProcs   []int
	boundCnt     []int32 // portBound's per-clique out/in counts
	compScratch  []int   // repairConnectivity's component labels

	// The last round's colouring (finalize.go), which assemble reads:
	// finK the direction's colour count (its width; 0 = unused) and
	// finColors its members' colours in flow-ID order, both at
	// from*stride+to; finDeg backs the real degrees colour returns, and
	// repairs lists the connectivity repair pipes in the order they were
	// added.
	finK      []int32
	finColors [][]int
	finDeg    []int
	repairs   [][2]int
}

func pairKey(a, b int) [2]int {
	if b < a {
		a, b = b, a
	}
	return [2]int{a, b}
}

// nsw is the current switch count (live or not).
func (s *state) nsw() int { return len(s.swProcs) }

// dead reports whether switch sw holds no processor and carries no flow: a
// hop off sw raises a pair width at sw and so sumW, and a route starts and
// ends at its endpoints' homes. A dead switch has no port and no pipe, so the
// switch scans walk only the live ones (walkSet). Dead switches price alike
// as a relocation target or a pipe's intermediate (DESIGN.md §13), so those
// two scans price only the lowest (twinTargets).
func (s *state) dead(sw int) bool {
	return len(s.swProcs[sw]) == 0 && s.sumW[sw] == 0
}

// priceEveryTarget, set only by tests, prices every candidate: every switch
// index a scan meets, dead or not (walkSet, twinTargets), every candidate
// whose floor already loses (wiDeltaCand) and every probe of a sealed
// processor (sealed), moves the processor lists at every swap probe
// (swapRefine), and has bestRoute walk every flow's route (touchedFlows). It
// is the reference the shortcuts are held to.
var priceEveryTarget bool

// walkSet is the set of switches a scan visits: the live ones, or every
// index under priceEveryTarget. In production it is liveSet itself, so a scan
// that commits as it goes and steps with Next sees liveness as it stands.
func (s *state) walkSet() model.BitSet {
	if !priceEveryTarget {
		return s.liveSet
	}
	if len(s.everySet) < len(s.liveSet) {
		s.everySet = make(model.BitSet, len(s.liveSet))
	}
	s.everySet.Reset()
	for sw := range s.nsw() {
		s.everySet.Set(sw)
	}
	return s.everySet
}

// liveSwitches lists walkSet ascending, into a buffer its caller consumes
// before the next call.
func (s *state) liveSwitches() []int {
	s.liveScratch = s.walkSet().Elems(s.liveScratch[:0])
	return s.liveScratch
}

// twinTargets lists, ascending, the switches a relocation or pipe-
// intermediate scan prices: the live ones and the lowest dead one, which
// prices as every dead switch does, or every index under priceEveryTarget.
// It also returns how many dead switches it leaves out. The lowest dead
// switch is the set's first zero below the switch count.
func (s *state) twinTargets() (targets []int, twins int) {
	set, n := s.walkSet(), s.nsw()
	w := 0
	for w < len(set) && set[w] == ^uint64(0) {
		w++
	}
	firstDead := n
	if w < len(set) {
		firstDead = min(n, w<<6|bits.TrailingZeros64(^set[w]))
	}
	targets = s.twinScratch[:0]
	for w, word := range set {
		if w == firstDead>>6 && firstDead < n {
			word |= 1 << (uint(firstDead) & 63)
		}
		for ; word != 0; word &= word - 1 {
			targets = append(targets, w<<6|bits.TrailingZeros64(word))
		}
	}
	s.twinScratch = targets
	return targets, n - len(targets)
}

// sealed reports whether every flow of p has its other endpoint on p's
// switch, so each route p owns is one switch long. A swap of two sealed
// processors frees no hop and puts each of their flows on one, so it prices
// at 0 or more and is not probed. Always false under priceEveryTarget.
func (s *state) sealed(p int) bool { return !priceEveryTarget && s.cross[p] == 0 }

// stuck reports whether no relocation of p can price below 0, so none is
// probed: p is sealed, so leaving frees no hop, and its home is within
// budget, so leaving lowers no penalty; arriving adds a hop per flow and
// can only raise a penalty.
func (s *state) stuck(p int) bool { return s.sealed(p) && !s.violates(s.home[p]) }

// pipeAt returns the ordered direction's flow set, or nil if never used.
func (s *state) pipeAt(from, to int) model.BitSet { return s.pipes[from*s.stride+to] }

// pipeUsed reports whether the ordered direction carries any flow: every flow
// is in at least one clique (the flow universe is the cliques' union), so a
// direction is empty exactly when its width is zero.
func (s *state) pipeUsed(from, to int) bool { return s.dirW[from*s.stride+to] > 0 }

func (s *state) widthIdx(a, b int) int {
	if b < a {
		a, b = b, a
	}
	return a*s.stride + b
}

// growStride resizes the dense pipe/cache matrices to hold at least n
// switches, preserving pipe contents, count rows, widths, and route headers.
// New direction cells start empty (no row, width 0, quad 0) and new pair
// cells at width 0, which is consistent with sumW: a never-used pipe
// contributes nothing.
func (s *state) growStride(n int) {
	if n <= s.stride {
		return
	}
	stride := s.stride
	if stride == 0 {
		stride = 1
	}
	for stride < n {
		stride *= 2
	}
	pipes := make([]model.BitSet, stride*stride)
	rowAt := make([]int32, stride*stride)
	dirW := make([]int32, stride*stride)
	dirQ := make([]int64, stride*stride)
	pairW := make([]int32, stride*stride)
	pairRoute := make([][]int, stride*stride)
	for a := 0; a < s.stride; a++ {
		for b := 0; b < s.stride; b++ {
			o, n := a*s.stride+b, a*stride+b
			pipes[n] = s.pipes[o]
			rowAt[n] = s.rowAt[o]
			dirW[n] = s.dirW[o]
			dirQ[n] = s.dirQ[o]
			pairW[n] = s.pairW[o]
			pairRoute[n] = s.pairRoute[o]
		}
	}
	s.stride = stride
	s.pipes, s.rowAt = pipes, rowAt
	s.dirW, s.dirQ, s.pairW, s.pairRoute = dirW, dirQ, pairW, pairRoute
	sumW := make([]int64, stride)
	copy(sumW, s.sumW)
	s.sumW = sumW
	selfRoute := make([][]int, stride)
	copy(selfRoute, s.selfRoute)
	s.selfRoute = selfRoute
	liveSet := make(model.BitSet, (stride+63)/64)
	copy(liveSet, s.liveSet)
	s.liveSet = liveSet
	// All-zero between evaluations, so nothing to carry over.
	s.wi.slot = make([]int32, stride*stride)
	s.wi.seen = make([]bool, stride*stride)
	s.wi.deg = make([]int64, stride)
	s.wi.fdeg = make([]int64, stride)
}

// setRoute replaces a flow's route, maintaining the per-pipe flow sets,
// tables, and total hop count. Inside a probe it journals the old header for
// rollback first.
func (s *state) setRoute(fi int, route []int) {
	if s.probing {
		s.journal = append(s.journal, journalEntry{kind: jeRoute, a: int32(fi), route: s.routes[fi]})
	}
	s.setRouteRaw(fi, route)
}

// directRoute is the one-pipe path between the endpoints' home switches, as
// a shared cached header.
func (s *state) directRoute(fi int) []int {
	f := s.flows[fi]
	return s.cachedDirect(s.home[f.Src], s.home[f.Dst])
}

// split performs step 5 of the main algorithm: create a new switch and move
// half of sw's processors (randomly chosen) to it, rerouting affected flows
// directly. Returns the new switch's index.
func (s *state) split(sw int) int {
	j := len(s.swProcs)
	s.swProcs = append(s.swProcs, nil)
	s.swDepth = append(s.swDepth, s.swDepth[sw]+1)
	if d := s.swDepth[j]; d > s.stats.MaxDepth {
		s.stats.MaxDepth = d
	}
	s.growStride(len(s.swProcs))
	ps := append(s.splitScratch[:0], s.swProcs[sw]...)
	s.splitScratch = ps
	s.rng.Shuffle(len(ps), func(a, b int) { ps[a], ps[b] = ps[b], ps[a] })
	half := len(ps) / 2
	for _, p := range ps[:half] {
		s.reattach(p, j)
	}
	s.stats.Splits++
	return j
}

// reattach moves processor p to switch to and resets the routes of all flows
// touching p to direct paths.
func (s *state) reattach(p, to int) {
	s.reattachNoReroute(p, to)
	for _, fi := range s.procFlows[p] {
		s.setRoute(fi, s.directRoute(fi))
	}
}

// reattachNoReroute moves the processor without touching routes; its callers
// (reattach, swapHomes) reroute afterwards. Inside a probe it journals the
// old home for rollback first.
func (s *state) reattachNoReroute(p, to int) {
	if s.probing {
		s.journal = append(s.journal, journalEntry{kind: jeAttach, a: int32(p), b: int32(s.home[p])})
	}
	s.moveProcRaw(p, to)
}

// balancedAfterMove checks the Appendix's step 8 balance rule: a move must
// not leave the two partitions differing by more than two processors. It
// additionally forbids emptying either half — undoing a split entirely just
// recreates the violating switch and cycles the partitioning loop.
func (s *state) balancedAfterMove(p, to int, i, j int) bool {
	ni, nj := len(s.swProcs[i]), len(s.swProcs[j])
	if s.home[p] == i && to == j {
		ni, nj = ni-1, nj+1
	} else if s.home[p] == j && to == i {
		ni, nj = ni+1, nj-1
	}
	if ni == 0 || nj == 0 {
		return false
	}
	d := ni - nj
	if d < 0 {
		d = -d
	}
	return d <= 2
}

// splitAndOptimize splits switch i, runs Best_Route on the new pair, and
// optimizes the processor moves between the halves.
func (s *state) splitAndOptimize(i int) {
	j := s.split(i)
	if s.opt.Variant != NoBestRoute {
		s.touchBuf[0], s.touchBuf[1] = i, j
		s.bestRoute(s.touchBuf[:], s.touchBuf[:])
	}
	s.optimizeMoves(i, j)
}

// optimizeMoves runs the Appendix's step 7-9 loop on a fresh split (i, j):
// repeatedly commit the best improving processor move between the halves
// (or, with annealing enabled, a temperature-accepted random move), calling
// Best_Route after each commit.
func (s *state) optimizeMoves(i, j int) {
	if s.opt.Variant == Annealed {
		s.annealMoves(i, j)
	}
	// The candidate set is the union of the two halves, which commits can
	// only permute (moves stay between i and j), so the sorted list is
	// built once for the whole loop instead of per iteration.
	candidates := append(append(s.candScratch[:0], s.swProcs[i]...), s.swProcs[j]...)
	s.candScratch = candidates
	sort.Ints(candidates)
	for iter := 0; iter < 4*s.procs; iter++ {
		bestDelta := 0
		bestProc, bestTo := -1, -1
		for _, p := range candidates {
			to := j
			if s.home[p] == j {
				to = i
			}
			if !s.balancedAfterMove(p, to, i, j) {
				continue
			}
			if s.stuck(p) {
				s.procToEnd(p) // what a priced probe leaves
				s.stats.MovesEvaluated++
				continue
			}
			if delta := s.probeMove(p, to, bestDelta); delta < bestDelta {
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
			s.touchBuf[0], s.touchBuf[1] = i, j
			s.bestRoute(s.touchBuf[:], s.touchBuf[:])
		}
	}
}

// annealMoves' schedule starts at four links' worth of cost, far below one
// unit of violation penalty.
const (
	annealTemp    = 1 << 18
	annealCooling = 0.85
	annealSteps   = 24
)

// annealMoves performs temperature-accepted random moves before the greedy
// descent — the "simulated annealing technique" of Section 3 generalizing
// the Appendix's greedy loop. The candidate slice is rebuilt only after a
// step that evaluated a move: even a rejected probe nets the processor to
// the end of its home list, so only balance-skipped steps leave the concat
// order (and hence the RNG-indexed draw) unchanged.
func (s *state) annealMoves(i, j int) {
	temp := float64(annealTemp)
	refresh := true
	var candidates []int
	for step := 0; step < annealSteps; step++ {
		if refresh {
			candidates = append(append(s.candScratch[:0], s.swProcs[i]...), s.swProcs[j]...)
			s.candScratch = candidates
			refresh = false
		}
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
		delta := s.probeMove(p, to, noBound)
		accept := delta < 0 || s.rng.Float64() < math.Exp(-float64(delta)/temp)
		if accept {
			s.reattach(p, to)
			s.stats.MovesCommitted++
			s.touchBuf[0], s.touchBuf[1] = i, j
			s.bestRoute(s.touchBuf[:], s.touchBuf[:])
		} else {
			s.stats.MovesRejected++
		}
		refresh = true
		temp *= annealCooling
	}
}

// globalRefine polishes the whole configuration after partitioning: single-
// processor relocations across any switch pair and global Best_Route passes,
// committing strict improvements until a fixed point (bounded sweeps).
func (s *state) globalRefine() {
	if s.opt.Variant == NoGlobalRefine {
		return
	}
	for sweep := 0; sweep < 6; sweep++ {
		if s.cancelled() {
			return
		}
		changed := false
		if s.opt.Variant != NoBestRoute {
			s.bestRoute(nil, nil)
			if s.eliminatePipes() {
				changed = true
			}
		}
		// p's flows leave once; each target adds their direct paths and
		// the arriving processor. A dead target prices as the lowest dead
		// one does, so it cannot strictly improve on it, and no target of a
		// stuck p can: only their MovesEvaluated ticks remain — the dead
		// ones twinTargets leaves out pass the processor budget, holding
		// none — and p goes to the end of its list as a priced probe leaves
		// it. Only a relocation changes the targets.
		targets, twins := s.twinTargets()
		for p := 0; p < s.procs; p++ {
			departed, stuck := false, s.stuck(p)
			bestDelta := 0
			bestTo := -1
			skipped := twins
			for _, to := range targets {
				if to == s.home[p] || len(s.swProcs[to]) >= s.opt.MaxProcsPerSwitch {
					continue
				}
				if stuck {
					skipped++
					continue
				}
				if !departed {
					s.wiDepart(p)
					departed = true
				}
				delta := s.wiArrive(p, to, bestDelta)
				if delta < bestDelta {
					bestDelta = delta
					bestTo = to
				}
			}
			if departed {
				s.wiRelease()
			}
			if stuck && skipped > 0 {
				s.procToEnd(p)
			}
			s.stats.MovesEvaluated += skipped
			if bestTo != -1 {
				s.reattach(p, bestTo)
				s.stats.GlobalMoves++
				changed = true
				targets, twins = s.twinTargets()
			}
		}
		if s.swapRefine() {
			changed = true
		}
		if s.anyViolation() && s.opt.Variant != NoBestRoute {
			if s.eliminatePipes() {
				changed = true
			}
			if s.backboneReroute() {
				changed = true
			}
			s.rerouteAnneal(64 * len(s.swProcs))
			changed = true
		}
		if !s.anyViolation() && s.mergeRefine() {
			changed = true
		}
		if !changed {
			return
		}
	}
}

// cancelled reports whether the run's context has been cancelled. The
// caller chain (partition → synthesizeOnce → SynthesizeModel) converts a
// true return into the context's error.
func (s *state) cancelled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// partition runs the main loop: while some switch violates the constraints
// and can be split, split it and locally optimize. Returns false if
// violations remain but no switch can be split further.
func (s *state) partition() bool {
	limit := 6*s.procs + 16
	for iter := 0; iter < limit; iter++ {
		if s.cancelled() {
			return false
		}
		if !s.anyViolation() {
			if s.seedFast {
				s.seedFast = false
				return true
			}
			s.globalRefine()
			return true
		}
		var splittable []int
		for _, sw := range s.liveSwitches() {
			if s.violates(sw) && len(s.swProcs[sw]) >= 2 {
				splittable = append(splittable, sw)
			}
		}
		if len(splittable) == 0 {
			s.globalRefine()
			return !s.anyViolation()
		}
		s.splitAndOptimize(splittable[s.rng.Intn(len(splittable))])
	}
	s.globalRefine()
	return !s.anyViolation()
}

// anyViolation reports whether some switch breaks the design constraints.
func (s *state) anyViolation() bool { return s.penalty > 0 }

// routeTouches reports whether a route visits switch sw.
func routeTouches(route []int, sw int) bool {
	for _, x := range route {
		if x == sw {
			return true
		}
	}
	return false
}
