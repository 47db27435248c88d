package synth

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/coloring"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Result is the output of a synthesis run.
type Result struct {
	// Net is the generated topology.
	Net *topology.Network
	// Table holds the source routes with per-hop link assignments.
	Table *routing.Table
	// Cliques is the maximum clique set the synthesis worked from.
	Cliques []model.Clique
	// ConstraintsMet reports whether every switch satisfies the design
	// constraints after formal coloring.
	ConstraintsMet bool
	// ContentionFree reports Theorem 1's verdict for the ideal pattern:
	// C ∩ R = ∅.
	ContentionFree bool
	// Witnesses lists any C ∩ R violations (empty when ContentionFree).
	Witnesses []model.FlowPair
	// ExactColoring reports whether every pipe direction's width is
	// certified minimal by a clique.
	ExactColoring bool
	// Stats summarizes the search effort.
	Stats Stats
}

// colour runs step 3 of the main algorithm on the round's configuration:
// formal colouring of every used pipe direction's conflict graph, iterating
// the dense pipe matrix in ascending (from, to) order (vertices reach the
// colorers in sorted flow order because flow IDs ascend in Flow.Less order),
// then the connectivity repair. It keeps each direction's width and link
// colours for assemble and returns the real (post-colouring) degree of every
// switch index, repair pipes included, which is all the outer loop reads of a
// round, and whether every direction's width is certified minimal by a
// clique. A dead switch's degree is 0 and a live one's at least 1. The
// Fast_Color width the gap (Stats.FastColorGap) is measured against is the
// count tables' dirW, which setRouteRaw keeps exact.
//
// A used direction joins two live switches, so colour, repairConnectivity
// and assemble walk the live switches only (liveSwitches). They write and
// read finK and finColors between live switches only: a cell that touches a
// dead switch may hold an earlier round's colouring, and nothing reads it.
func (s *state) colour() (realDeg []int, allExact bool) {
	n, st := s.nsw(), s.stride
	if len(s.finK) < st*st {
		s.finK = make([]int32, st*st)
		s.finColors = make([][]int, st*st)
	}
	allExact = true
	sws := s.liveSwitches()
	for _, from := range sws {
		for _, to := range sws {
			d := from*st + to
			s.finK[d], s.finColors[d] = 0, nil
			if !s.pipeUsed(from, to) {
				continue
			}
			set := s.pipeAt(from, to)
			k, colors, certified := coloring.Color(set, s.conflict)
			s.stats.DSATUR++
			allExact = allExact && certified
			if fast := int(s.dirW[d]); k > fast {
				s.stats.FastColorGap += k - fast
			}
			s.finK[d], s.finColors[d] = int32(k), colors
		}
	}
	realDeg = s.finDeg[:0]
	for sw := 0; sw < n; sw++ {
		realDeg = append(realDeg, len(s.swProcs[sw]))
	}
	for i, a := range sws {
		for _, b := range sws[i+1:] {
			w := s.finWidth(a, b)
			realDeg[a] += w
			realDeg[b] += w
		}
	}
	s.finDeg = realDeg
	s.repairConnectivity(realDeg, sws)
	return realDeg, allExact
}

// finWidth is the coloured width of the pipe between switches a and b: the
// larger of its two directions' colour counts (Section 3.1).
func (s *state) finWidth(a, b int) int {
	return int(max(s.finK[a*s.stride+b], s.finK[b*s.stride+a]))
}

// repairConnectivity makes the round's switch graph connected, as
// Definition 1 requires: patterns whose flows do not span all switches leave
// islands. It chains the components of the live switches and coloured pipes,
// in order of their lowest switch index, each to the next with a unit pipe
// attached at the least-loaded (lowest-index among equals) switch of each,
// so it manufactures no degree violation it can avoid. It records the pipes
// in s.repairs for assemble and adds their ports to deg. sws are the
// switches colour walked, ascending.
func (s *state) repairConnectivity(deg, sws []int) {
	n := s.nsw()
	comp := s.compScratch[:0]
	for sw := 0; sw < n; sw++ {
		comp = append(comp, -1)
	}
	s.compScratch = comp
	nc := 0
	for _, start := range sws {
		if comp[start] != -1 || s.dead(start) {
			continue
		}
		comp[start] = nc
		stack := append(s.idScratch[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range sws {
				if comp[u] == -1 && s.finWidth(v, u) > 0 {
					comp[u] = nc
					stack = append(stack, u)
				}
			}
		}
		s.idScratch = stack
		nc++
	}
	s.repairs = s.repairs[:0]
	minDeg := func(c int) int {
		best := -1
		for _, sw := range sws {
			if comp[sw] == c && (best == -1 || deg[sw] < deg[best]) {
				best = sw
			}
		}
		return best
	}
	for c := 1; c < nc; c++ {
		a, b := minDeg(c-1), minDeg(c)
		deg[a]++
		deg[b]++
		s.repairs = append(s.repairs, [2]int{a, b})
	}
	s.stats.Repairs += len(s.repairs)
}

// assemble builds the design of the round colour last checked: a network of
// the live switches (a dead one becomes no switch), its coloured pipes in
// ascending (a, b) order and then the repair pipes, and the routing table
// with each hop's link. A restart assembles once, on the round it exits
// (DESIGN.md §6); it validates the network and the table it returns.
func (s *state) assemble(name string) (*topology.Network, *routing.Table, error) {
	n, st := s.nsw(), s.stride
	remap := make([]topology.SwitchID, n)
	net := topology.New(name, s.procs)
	for sw := 0; sw < n; sw++ {
		if s.dead(sw) {
			remap[sw] = -1
			continue
		}
		remap[sw] = net.AddSwitch()
	}
	for p := 0; p < s.procs; p++ {
		net.AttachProc(p, remap[s.home[p]])
	}
	// Downstream consumers (serialization, the simulator's channel
	// numbering and arbitration) iterate net.Pipes in this order.
	sws := s.liveSwitches()
	for i, a := range sws {
		for _, b := range sws[i+1:] {
			if w := s.finWidth(a, b); w > 0 {
				net.SetPipe(remap[a], remap[b], w)
			}
		}
	}
	for _, r := range s.repairs {
		net.SetPipe(remap[r[0]], remap[r[1]], 1)
	}

	// A hop's link is the colour of the flow's vertex in the direction's
	// conflict graph, whose vertices are the direction's flows in ID order.
	table := routing.NewTable(net)
	for fi, f := range s.flows {
		r := s.routes[fi]
		route := routing.Route{Switches: make([]topology.SwitchID, len(r))}
		for i, sw := range r {
			route.Switches[i] = remap[sw]
		}
		for i := 1; i < len(r); i++ {
			d := r[i-1]*st + r[i]
			if s.finK[d] == 0 {
				return nil, nil, fmt.Errorf("synth: flow %v hop %d has no link assignment", f, i-1)
			}
			route.Links = append(route.Links, s.finColors[d][s.pipes[d].Rank(fi)])
		}
		table.Routes[f] = route
	}
	if err := net.Validate(); err != nil {
		return nil, nil, fmt.Errorf("synth: generated network invalid: %v", err)
	}
	if err := table.Validate(); err != nil {
		return nil, nil, fmt.Errorf("synth: generated routes invalid: %v", err)
	}
	return net, table, nil
}

// assembleEveryRound, set only by tests, assembles every round, not only the
// one a restart exits on, and hands it the round's real degrees (by switch
// index) and its network and table. TestRoundDegreesMatchAssembly holds the
// degrees colour counts to the assembled network's.
var assembleEveryRound func(realDeg []int, net *topology.Network, table *routing.Table)

// Synthesize runs the full design methodology on a pattern and returns the
// best result over the configured restarts (fewest links, then fewest
// switches, then fewest total hops; runs meeting the constraints and
// verifying contention-free always beat runs that do not).
//
// Restarts execute concurrently on an Options.Workers-bounded pool. Each
// restart is fully independent — its seed is derived from the restart index
// alone and all mutable state lives in its private *state — and the
// reduction folds results in restart-index order, so the chosen winner (and
// every byte of the returned design) is identical to the serial loop's no
// matter which worker finishes first. A restart that never draws from its
// RNG would compute the same result under every seed, so it runs once and
// the other restarts of its kind fold its result (restartKind).
func Synthesize(p *model.Pattern, opt Options) (*Result, error) {
	return SynthesizeCliques(context.Background(), p, model.MaxCliqueSet(p), opt)
}

// SynthesizeCliques is Synthesize with cancellation, for a caller that
// already holds the pattern's maximum clique set (model.MaxCliqueSet(p)),
// which is all the search reads of the pattern's timing: NewModel, then
// SynthesizeModel.
func SynthesizeCliques(ctx context.Context, p *model.Pattern, cliques []model.Clique, opt Options) (*Result, error) {
	m, err := NewModel(p, cliques)
	if err != nil {
		return nil, err
	}
	return SynthesizeModel(ctx, m, opt)
}

// Model is the immutable per-pattern input of a synthesis: the pattern's
// name and the search kernel built from its maximum clique set (flow
// interning, the conflict matrix, clique bitsets, the processor → flow
// map). It depends on the pattern alone, not on the seed, the constraints,
// the restarts or a seed design, so one Model serves every synthesis of its
// pattern, concurrently too: nothing writes it once NewModel returns.
type Model struct {
	name string
	kern *kernel
}

// NewModel validates p and builds its Model from cliques, p's maximum clique
// set (model.MaxCliqueSet(p)).
func NewModel(p *model.Pattern, cliques []model.Clique) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %v", err)
	}
	return &Model{name: p.Name, kern: newKernel(p, cliques)}, nil
}

// Footprint estimates the bytes m holds: its cliques, its flow index and the
// kernel's per-flow, per-clique and per-processor tables, the conflict
// matrix's flows × flows bits the largest of them.
func (m *Model) Footprint() int {
	k := m.kern
	flows, cliques := len(k.flows), len(k.cliques)
	words := (flows + 63) / 64
	members := 0
	for _, c := range k.cliques {
		members += len(c)
	}
	const header = 24 // bytes in a slice header

	return header*(2*cliques+3*flows+k.procs) + // clique, bitset and per-flow slices
		8*words*(flows+cliques) + // conflict rows and clique bitsets
		20*members + // cliques' flows and flowCliques
		48*flows // flows, index slots, revID and procFlows
}

// SynthesizeModel runs the search on a Model under ctx. ctx is polled at
// every restart boundary and at every bisection (partition-loop) boundary,
// so a cancelled context aborts the run promptly — in-flight restarts return
// at their next check, the pool drains, and the first restart's ctx error
// (in restart-index order, matching the serial loop) is returned. A nil ctx
// is treated as context.Background(). Threading a live but never-cancelled
// context is free of behavioral effect: the checks read ctx.Err() only, so
// the RNG streams, the fold order, and every byte of the returned design are
// identical to Synthesize's (pinned by TestDeterminismContextPlumbing).
func SynthesizeModel(ctx context.Context, m *Model, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.Normalized()
	if opt.Restarts < 0 {
		return nil, fmt.Errorf("synth: negative Restarts %d", opt.Restarts)
	}
	if !opt.Variant.Valid() {
		return nil, fmt.Errorf("synth: unknown Variant %d", opt.Variant)
	}
	if opt.MaxDegree < 0 || opt.MaxProcsPerSwitch < 0 {
		return nil, fmt.Errorf("synth: negative MaxDegree %d or MaxProcsPerSwitch %d", opt.MaxDegree, opt.MaxProcsPerSwitch)
	}
	sp := obs.Span(opt.Obs, "synth.run")
	defer sp.End()
	best, totals, _, err := runRestarts(ctx, m, opt)
	if err != nil {
		return nil, err
	}
	emitSynthObs(opt.Obs, totals, best)
	return best, nil
}

// runRestarts runs and folds the restarts of one synthesis: the best result,
// the folded restarts' summed Stats, and how many of them folded a drawless
// leader's result instead of computing their own (restartKind).
func runRestarts(ctx context.Context, m *Model, opt Options) (best *Result, totals Stats, shared int, err error) {
	// Seeded-ness is a pure function of the restart index: the configured
	// restarts replay the seed, extension restarts (index >= Restarts, drawn
	// only while constraints are unmet) start cold. That keeps the fold
	// byte-deterministic for every worker count and makes cold fallback
	// automatic. The first restart of each kind leads it.
	cold, seeded := newRestartKind(0), newRestartKind(0)
	if opt.SeedDesign != nil {
		cold = newRestartKind(opt.Restarts)
	}
	// runOne computes restart idx. Errors are carried per run rather than
	// through Map so the in-order folds below report exactly the error the
	// serial loop would have hit first.
	type runOut struct {
		res    *Result
		shared bool
		err    error
	}
	runOne := func(idx int) runOut {
		sd, kind := opt.SeedDesign, seeded
		if idx >= opt.Restarts || sd == nil {
			sd, kind = nil, cold
		}
		leads := idx == kind.leader
		var res *Result
		if leads {
			defer close(kind.done)
		} else {
			res = kind.wait(ctx)
		}
		if err := ctx.Err(); err != nil {
			return runOut{err: err}
		}
		// The span is emitted from the worker (wall time), also for a
		// shared restart, so span counts do not depend on sharing; all
		// counter-valued telemetry stays in res.Stats and is published by
		// the in-order fold below, so speculative extension restarts never
		// leak into the counters.
		rsp := obs.Span(opt.Obs, "synth.restart")
		defer rsp.End()
		if res != nil {
			return runOut{res: res, shared: true}
		}
		var firstDraw func()
		if leads {
			firstDraw = func() { close(kind.drew) }
		}
		res, drew, err := synthesizeOnce(ctx, m, opt, sd, opt.Seed+int64(idx)*7919, firstDraw)
		if leads && err == nil && !drew {
			kind.res = res
		}
		return runOut{res: res, err: err}
	}

	// The configured restarts always all run and all fold.
	run := 0
	fold := func(out runOut) {
		run++
		if out.shared {
			shared++
		}
		totals.Add(out.res.Stats)
		if better(out.res, best) {
			best = out.res
		}
	}
	outs, _ := parallel.Map(opt.Workers, opt.Restarts, func(i int) (runOut, error) { return runOne(i), nil })
	for _, out := range outs {
		if out.err != nil {
			return nil, Stats{}, 0, out.err
		}
		fold(out)
	}
	// After the configured restarts, keep drawing fresh seeds (up to three
	// times as many) while no run has met the design constraints — random
	// bisection quality varies and a failed run is much worse than a
	// slightly slower one. The extension restarts stream through one pool,
	// a worker taking the next index as soon as it is free. The fold stops
	// at the first restart that meets the constraints or fails, so no
	// restart starts above the lowest such index seen so far (stop), and one
	// that was already running past it is discarded: the winner and
	// Stats.RestartsRun are the serial loop's.
	extension := 0
	if !best.ConstraintsMet {
		extension = 3 * opt.Restarts
	}
	var stop atomic.Int64
	stop.Store(math.MaxInt64)
	outs, _ = parallel.Map(opt.Workers, extension, func(i int) (runOut, error) {
		idx := int64(opt.Restarts + i)
		if idx > stop.Load() {
			return runOut{}, nil
		}
		out := runOne(int(idx))
		if out.err != nil || out.res.ConstraintsMet {
			for cur := stop.Load(); idx < cur; cur = stop.Load() {
				if stop.CompareAndSwap(cur, idx) {
					break
				}
			}
		}
		return out, nil
	})
	for _, out := range outs {
		if out.err != nil {
			return nil, Stats{}, 0, out.err
		}
		fold(out)
		if best.ConstraintsMet {
			break
		}
	}
	best.Stats.RestartsRun = run
	totals.RestartsRun = run
	return best, totals, shared, nil
}

// restartKind lets the restarts that start alike — the seeded ones, or the
// cold ones — share a restart that never draws. A restart's seed reaches the
// search only through its draws (drawSource), so if the kind's first restart
// (its leader) returns without drawing, every restart of the kind would
// compute its result byte for byte, Stats included. The others wait for the
// leader's first draw or its return: after a draw they compute as before,
// after a drawless return they fold the leader's result as theirs. Cold
// restarts draw at their first split, so waiting costs them next to nothing.
// Which restarts share is a function of the pattern and options alone, never
// of timing, so the fold and every counter stay worker-invariant.
type restartKind struct {
	leader int           // restart index of the kind's first restart
	drew   chan struct{} // closed at the leader's first draw
	done   chan struct{} // closed when the leader returns, even by panic
	res    *Result       // the leader's result if it never drew; set before done
}

func newRestartKind(leader int) *restartKind {
	return &restartKind{leader: leader, drew: make(chan struct{}), done: make(chan struct{})}
}

// wait blocks until the leader draws or returns, or ctx ends, and returns
// the leader's result if the caller may fold it instead of computing its own.
func (k *restartKind) wait(ctx context.Context) *Result {
	select {
	case <-ctx.Done():
		return nil
	case <-k.drew:
		return nil
	case <-k.done:
		return k.res
	}
}

// emitSynthObs publishes one synthesis run's aggregate effort. It runs once
// per Synthesize, after the deterministic in-order restart fold, with the
// totals of exactly the restarts that folded — so every counter is
// identical for any Options.Workers value even when speculative extension
// restarts over-ran (their discarded results never reach totals).
func emitSynthObs(o obs.Observer, totals Stats, best *Result) {
	if o == nil {
		return
	}
	obs.Count(o, "synth.runs", 1)
	obs.Count(o, "synth.restarts_run", int64(totals.RestartsRun))
	obs.Count(o, "synth.seeded_restarts", int64(totals.SeededRestarts))
	obs.Count(o, "synth.splits", int64(totals.Splits))
	obs.Count(o, "synth.moves_evaluated", int64(totals.MovesEvaluated))
	obs.Count(o, "synth.moves_committed", int64(totals.MovesCommitted))
	obs.Count(o, "synth.moves_rejected", int64(totals.MovesRejected))
	obs.Count(o, "synth.reroutes", int64(totals.Reroutes))
	obs.Count(o, "synth.global_moves", int64(totals.GlobalMoves))
	obs.Count(o, "synth.merges_tried", int64(totals.MergesTried))
	obs.Count(o, "synth.merges_skipped", int64(totals.MergesSkipped))
	obs.Count(o, "synth.rounds", int64(totals.Rounds))
	obs.Count(o, "synth.repairs", int64(totals.Repairs))
	obs.Count(o, "synth.bisection_depth", int64(totals.MaxDepth))
	obs.Count(o, "synth.fastcolor_width_gap", int64(totals.FastColorGap))
	obs.Count(o, "coloring.dsatur", int64(totals.DSATUR))
	obs.Count(o, "synth.switches", int64(best.Net.NumSwitches()))
	obs.Count(o, "synth.links", int64(best.Net.TotalLinks()))
	if !best.ConstraintsMet {
		obs.Emit(o, "synth.constraints_unmet", best.Net.Name)
	}
	if !best.ContentionFree {
		obs.Emit(o, "synth.contention_witnesses", fmt.Sprintf("%s: %d", best.Net.Name, len(best.Witnesses)))
	}
}

// ResourceCost is the design's combined resource cost, links plus each
// switch priced as the merge objective prices it in links: the restart fold
// ranks designs that tie on their verdicts by it.
func (r *Result) ResourceCost() int {
	return r.Net.TotalLinks() + costSwitchWeight/costLinkWeight*r.Net.NumSwitches()
}

func better(a, b *Result) bool {
	if b == nil {
		return true
	}
	if a.ConstraintsMet != b.ConstraintsMet {
		return a.ConstraintsMet
	}
	if a.ContentionFree != b.ContentionFree {
		return a.ContentionFree
	}
	if ra, rb := a.ResourceCost(), b.ResourceCost(); ra != rb {
		return ra < rb
	}
	return totalHops(a.Table) < totalHops(b.Table)
}

func totalHops(t *routing.Table) int {
	h := 0
	for _, r := range t.Routes {
		h += r.Hops()
	}
	return h
}

// maxRounds bounds the outer partition-colour loop.
const maxRounds = 16

// synthesizeOnce runs one restart. drew reports whether it drew from its
// random source at all; firstDraw, when non-nil, runs at its first draw.
func synthesizeOnce(ctx context.Context, m *Model, opt Options, sd *SeedDesign, seed int64, firstDraw func()) (res *Result, drew bool, err error) {
	stats := &Stats{}
	s := newState(m.kern, opt, seed, stats)
	defer s.release()
	s.ctx = ctx
	s.src.onFirst = firstDraw
	res, err = s.run(m.name, sd)
	return res, s.src.drew, err
}

// run is one restart's search on a fresh state: the seed replay, then
// partition and colour rounds until the real degrees meet the budget, and
// one assembly of the design, on the round it exits.
func (s *state) run(pattern string, sd *SeedDesign) (*Result, error) {
	ctx, stats, kern := s.ctx, s.stats, s.kernel
	if s.applySeed(sd) {
		stats.SeededRestarts++
	}
	var (
		net     *topology.Network
		table   *routing.Table
		exact   bool
		met     bool
		realDeg []int
		err     error
	)
	name := "generated." + pattern
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats.Rounds = round + 1
		estOK := s.partition()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		realDeg, exact = s.colour()
		met = true
		var forced []int
		for _, sw := range s.liveSwitches() {
			if s.excess(realDeg[sw], len(s.swProcs[sw])) > 0 {
				met = false
				if len(s.swProcs[sw]) >= 2 {
					forced = append(forced, sw)
				}
			}
		}
		last := met || len(forced) == 0 || !estOK
		// The design returned is the exiting round's: the last round's
		// forced splits below still run (they count in Stats) but reach
		// no design.
		if last || round == maxRounds-1 || assembleEveryRound != nil {
			if net, table, err = s.assemble(name); err != nil {
				return nil, err
			}
			if assembleEveryRound != nil {
				assembleEveryRound(realDeg, net, table)
			}
		}
		if last {
			if !estOK {
				met = false
			}
			break
		}
		// Estimates were optimistic: force-split every real violator
		// and continue.
		for _, i := range forced {
			s.splitAndOptimize(i)
		}
	}
	res := &Result{
		Net:            net,
		Table:          table,
		Cliques:        kern.cliques,
		ConstraintsMet: met,
		ExactColoring:  exact,
		Stats:          *stats,
	}
	free, wit := model.ContentionFreeBits(s.conflict, table.ConflictMatrix(s.idx))
	res.ContentionFree = free
	res.Witnesses = wit
	return res, nil
}
