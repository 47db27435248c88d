package synth

import (
	"context"
	"fmt"
	"sort"

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
	// ExactColoring reports whether every pipe was colored provably
	// optimally.
	ExactColoring bool
	// Stats summarizes the search effort.
	Stats Stats
}

// dirAssignment records the link assignment for one pipe direction.
type dirAssignment struct {
	colors int
	assign coloring.Assignment
}

// finalize runs step 3 of the main algorithm: formal coloring of every
// pipe's two conflict graphs, yielding exact widths and per-flow link
// indices, then assembles the topology and routing table. It returns the
// real (post-coloring) degree of each internal switch so the outer loop can
// keep partitioning if estimates were optimistic.
func (s *state) finalize(name string) (*topology.Network, *routing.Table, []int, bool, error) {
	// Only live switches, those holding processors or carrying any flow,
	// become network switches; a dead one maps to -1.
	remap := make([]topology.SwitchID, len(s.swProcs))
	net := topology.New(name, s.procs)
	for sw := range s.swProcs {
		if s.dead(sw) {
			remap[sw] = -1
			continue
		}
		remap[sw] = net.AddSwitch()
	}
	for p := 0; p < s.procs; p++ {
		net.AttachProc(p, remap[s.home[p]])
	}

	// Formal coloring per pipe direction, iterating the dense pipe matrix in
	// ascending (from, to) order. Vertices reach the colorers in sorted flow
	// order because flow IDs ascend in Flow.Less order.
	allExact := true
	assignments := make(map[[2]int]dirAssignment) // ordered (from,to)
	widths := make(map[[2]int]int)                // unordered pair
	for from := 0; from < s.nsw(); from++ {
		for to := 0; to < s.nsw(); to++ {
			if from == to || !s.pipeUsed(from, to) {
				continue
			}
			set := s.pipeAt(from, to)
			fast := coloring.FastColorBits(s.cliqueBits, set)
			g := coloring.BuildConflictGraphBits(set, s.conflict)
			var k int
			var colors []int
			if s.opt.GreedyFinalColoring {
				k, colors = g.Greedy()
				s.stats.Coloring.DSATUR++
			} else {
				var exact bool
				k, colors, exact = g.Exact(&s.stats.Coloring)
				allExact = allExact && exact
			}
			assign := make(coloring.Assignment, len(g.Flows))
			for i, f := range g.Flows {
				assign[f] = colors[i]
			}
			if k > fast {
				s.stats.FastColorGap += k - fast
			}
			assignments[[2]int{from, to}] = dirAssignment{colors: k, assign: assign}
			pk := pairKey(from, to)
			if k > widths[pk] {
				widths[pk] = k
			}
		}
	}
	// Deterministic pipe order: downstream consumers (serialization, the
	// simulator's channel numbering and arbitration) iterate net.Pipes.
	pairs := make([][2]int, 0, len(widths))
	for pk := range widths {
		pairs = append(pairs, pk)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pk := range pairs {
		net.SetPipe(remap[pk[0]], remap[pk[1]], widths[pk])
	}

	// Connectivity repair: Definition 1 requires a strongly connected
	// system. Patterns whose flows do not span all switches leave
	// islands; join them with unit-width pipes attached at the least-
	// loaded switches.
	s.stats.Repairs += repairConnectivity(net)

	// Real degrees in the internal switch ID space (for the outer loop),
	// including exact pipe widths and any repair pipes.
	realDeg := make([]int, len(s.swProcs))
	for sw := range s.swProcs {
		if remap[sw] >= 0 {
			realDeg[sw] = net.Degree(remap[sw])
		}
	}

	// Routing table with per-hop link assignments.
	table := routing.NewTable(net)
	for fi, f := range s.flows {
		r := s.routes[fi]
		route := routing.Route{Switches: make([]topology.SwitchID, len(r))}
		for i, sw := range r {
			route.Switches[i] = remap[sw]
		}
		for i := 1; i < len(r); i++ {
			da, ok := assignments[[2]int{r[i-1], r[i]}]
			if !ok {
				return nil, nil, nil, false, fmt.Errorf("synth: flow %v hop %d has no link assignment", f, i-1)
			}
			route.Links = append(route.Links, da.assign[f])
		}
		table.Routes[f] = route
	}
	if err := net.Validate(); err != nil {
		return nil, nil, nil, false, fmt.Errorf("synth: generated network invalid: %v", err)
	}
	if err := table.Validate(); err != nil {
		return nil, nil, nil, false, fmt.Errorf("synth: generated routes invalid: %v", err)
	}
	return net, table, realDeg, allExact, nil
}

// repairConnectivity links disconnected components of the switch graph with
// unit pipes (chaining component representatives in ID order). Returns the
// number of pipes added.
func repairConnectivity(net *topology.Network) int {
	n := net.NumSwitches()
	adj := make([][]int, n)
	for _, p := range net.Pipes {
		adj[p.A] = append(adj[p.A], int(p.B))
		adj[p.B] = append(adj[p.B], int(p.A))
	}
	comp := components(adj, n)
	nc := maxComp(comp) + 1
	if nc <= 1 {
		return 0
	}
	// Join each component to the next, attaching at the least-loaded
	// switch of each to avoid manufacturing degree violations.
	minDegSwitch := func(c int) topology.SwitchID {
		best := topology.SwitchID(-1)
		bestDeg := 0
		for sw := 0; sw < n; sw++ {
			if comp[sw] != c {
				continue
			}
			d := net.Degree(topology.SwitchID(sw))
			if best == -1 || d < bestDeg {
				best, bestDeg = topology.SwitchID(sw), d
			}
		}
		return best
	}
	added := 0
	for c := 1; c < nc; c++ {
		net.SetPipe(minDegSwitch(c-1), minDegSwitch(c), 1)
		added++
	}
	return added
}

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
// which is all the search reads of the pattern's timing. ctx is polled at
// every restart boundary and at every bisection (partition-loop) boundary,
// so a cancelled context aborts the run promptly — in-flight restarts return
// at their next check, the pool drains, and the first restart's ctx error
// (in restart-index order, matching the serial loop) is returned. A nil ctx
// is treated as context.Background(). Threading a live but never-cancelled
// context is free of behavioral effect: the checks read ctx.Err() only, so
// the RNG streams, the fold order, and every byte of the returned design are
// identical to Synthesize's (pinned by TestDeterminismContextPlumbing).
func SynthesizeCliques(ctx context.Context, p *model.Pattern, cliques []model.Clique, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %v", err)
	}
	opt = opt.Normalized()
	if opt.Restarts < 0 {
		return nil, fmt.Errorf("synth: negative Restarts %d", opt.Restarts)
	}
	sp := obs.Span(opt.Obs, "synth.run")
	defer sp.End()
	// The immutable per-pattern half of the search state (flow interning,
	// conflict matrix, clique bitsets) is built once and shared read-only by
	// every restart; the mutable half is pooled per restart.
	best, totals, _, err := runRestarts(ctx, p, newKernel(p, cliques), opt)
	if err != nil {
		return nil, err
	}
	emitSynthObs(opt.Obs, totals, best)
	return best, nil
}

// runRestarts runs and folds the restarts of one synthesis: the best result,
// the folded restarts' summed Stats, and how many of them folded a drawless
// leader's result instead of computing their own (restartKind).
func runRestarts(ctx context.Context, p *model.Pattern, kern *kernel, opt Options) (best *Result, totals Stats, shared int, err error) {
	// Seeded-ness is a pure function of the restart index: the configured
	// restarts replay the seed, extension restarts (index >= Restarts, drawn
	// only while constraints are unmet) start cold. That keeps the fold
	// byte-deterministic for every worker count and makes cold fallback
	// automatic. The first restart of each kind leads it.
	cold, seeded := newRestartKind(0), newRestartKind(0)
	if opt.SeedDesign != nil {
		cold = newRestartKind(opt.Restarts)
	}
	// runBatch computes restarts [from, from+n) concurrently. Errors are
	// carried per-run rather than through Map so the in-order fold below
	// reports exactly the error the serial loop would have hit first.
	type runOut struct {
		res    *Result
		shared bool
		err    error
	}
	runBatch := func(from, n int) []runOut {
		outs, _ := parallel.Map(opt.Workers, n, func(i int) (runOut, error) {
			idx := from + i
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
				return runOut{err: err}, nil
			}
			// The span is emitted from the worker (wall time), also for a
			// shared restart, so span counts do not depend on sharing; all
			// counter-valued telemetry stays in res.Stats and is
			// published by the in-order fold below, so speculative
			// extension restarts never leak into the counters.
			rsp := obs.Span(opt.Obs, "synth.restart")
			defer rsp.End()
			if res != nil {
				return runOut{res: res, shared: true}, nil
			}
			var firstDraw func()
			if leads {
				firstDraw = func() { close(kind.drew) }
			}
			res, drew, err := synthesizeOnce(ctx, p, kern, opt, sd, opt.Seed+int64(idx)*7919, firstDraw)
			if leads && err == nil && !drew {
				kind.res = res
			}
			return runOut{res: res, err: err}, nil
		})
		return outs
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
	for _, out := range runBatch(0, opt.Restarts) {
		if out.err != nil {
			return nil, Stats{}, 0, out.err
		}
		fold(out)
	}
	// After the configured restarts, keep drawing fresh seeds (up to
	// three times as many) while no run has met the design constraints —
	// random bisection quality varies and a failed run is much worse
	// than a slightly slower one. Extension batches are speculative: the
	// fold stops at the first restart index that satisfies the
	// constraints, discarding any later speculative results, which keeps
	// the winner and Stats.RestartsRun identical to the serial loop.
	for !best.ConstraintsMet && run < 4*opt.Restarts {
		n := parallel.Workers(opt.Workers)
		if rem := 4*opt.Restarts - run; n > rem {
			n = rem
		}
		for _, out := range runBatch(run, n) {
			if out.err != nil {
				return nil, Stats{}, 0, out.err
			}
			fold(out)
			if best.ConstraintsMet {
				break
			}
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
// batches over-ran (their discarded results never reach totals).
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
	totals.Coloring.Emit(o)
	obs.Count(o, "synth.switches", int64(best.Net.NumSwitches()))
	obs.Count(o, "synth.links", int64(best.Net.TotalLinks()))
	if !best.ConstraintsMet {
		obs.Emit(o, "synth.constraints_unmet", best.Net.Name)
	}
	if !best.ContentionFree {
		obs.Emit(o, "synth.contention_witnesses", fmt.Sprintf("%s: %d", best.Net.Name, len(best.Witnesses)))
	}
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
	// Combined resource cost mirrors the merge objective: a switch is
	// priced at two links.
	ra := a.Net.TotalLinks() + 2*a.Net.NumSwitches()
	rb := b.Net.TotalLinks() + 2*b.Net.NumSwitches()
	if ra != rb {
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

// maxRounds bounds the outer partition-finalize loop.
const maxRounds = 16

// synthesizeOnce runs one restart. drew reports whether it drew from its
// random source at all; firstDraw, when non-nil, runs at its first draw.
func synthesizeOnce(ctx context.Context, p *model.Pattern, kern *kernel, opt Options, sd *SeedDesign, seed int64, firstDraw func()) (res *Result, drew bool, err error) {
	stats := &Stats{}
	s := newState(kern, opt, seed, stats)
	defer s.release()
	s.ctx = ctx
	s.src.onFirst = firstDraw
	res, err = s.run(p, sd)
	return res, s.src.drew, err
}

// run is one restart's search on a fresh state: the seed replay, then
// partition and finalize rounds until the real degrees meet the budget.
func (s *state) run(p *model.Pattern, sd *SeedDesign) (*Result, error) {
	ctx, opt, stats, kern := s.ctx, s.opt, s.stats, s.kernel
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
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats.Rounds = round + 1
		estOK := s.partition()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		net, table, realDeg, exact, err = s.finalize(fmt.Sprintf("generated.%s", p.Name))
		if err != nil {
			return nil, err
		}
		met = true
		var forced []int
		for sw := range s.swProcs {
			if len(s.swProcs[sw]) > opt.MaxProcsPerSwitch || realDeg[sw] > opt.MaxDegree {
				met = false
				if len(s.swProcs[sw]) >= 2 {
					forced = append(forced, sw)
				}
			}
		}
		if met || len(forced) == 0 || !estOK {
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
