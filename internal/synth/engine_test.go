package synth

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// threeSwitchState builds a state already split into three switches so via
// routes exist.
func threeSwitchState(t *testing.T, seed int64) *state {
	t.Helper()
	s := testState(t, 8, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1), model.F(2, 3), model.F(4, 5), model.F(6, 7)}, Bytes: 64},
		{Flows: []model.Flow{model.F(1, 4), model.F(3, 6), model.F(5, 0), model.F(7, 2)}, Bytes: 64},
	}, seed)
	s.split(0)
	for sw, procs := range s.swProcs {
		if len(procs) >= 2 {
			s.split(sw)
			break
		}
	}
	if len(s.swProcs) < 3 {
		t.Fatal("could not build three switches")
	}
	return s
}

// crossFlow returns a flow ID whose endpoints live on different switches.
func crossFlow(t *testing.T, s *state) int {
	t.Helper()
	for fi, f := range s.flows {
		if s.home[f.Src] != s.home[f.Dst] {
			return fi
		}
	}
	t.Fatal("no cross-switch flow")
	return -1
}

// TestJournalRollbackRestoresExactly mutates one flow's route and one
// processor's home twice each inside a probe scope — the second time back to
// where they started, so the journal holds entries that overwrite each other
// — and requires the rollback to restore placement, routes and tables.
func TestJournalRollbackRestoresExactly(t *testing.T) {
	s := threeSwitchState(t, 11)
	fi := crossFlow(t, s)
	f := s.flows[fi]
	before := snapshotFull(s)

	m := s.beginProbe()
	a, b := s.home[f.Src], s.home[f.Dst]
	via := -1
	for sw := range s.swProcs {
		if sw != a && sw != b {
			via = sw
			break
		}
	}
	r := s.arena.alloc(3)
	r[0], r[1], r[2] = a, via, b
	s.setRoute(fi, r)
	p := s.swProcs[a][0]
	s.reattachNoReroute(p, b)
	s.setRoute(fi, s.cachedDirect(s.home[f.Src], s.home[f.Dst]))
	s.reattachNoReroute(p, a)
	if len(s.journal) != 4 {
		t.Fatalf("journal holds %d entries, want 4", len(s.journal))
	}
	s.rollback(m)

	if !equalSnapshots(before, snapshotFull(s)) {
		t.Fatal("rollback did not restore state")
	}
	checkStateInvariants(t, s)
	if len(s.journal) != 0 || s.probing {
		t.Fatalf("journal not drained: len=%d probing=%v", len(s.journal), s.probing)
	}
}

func TestJournalKeepCommits(t *testing.T) {
	s := threeSwitchState(t, 13)
	fi := crossFlow(t, s)
	f := s.flows[fi]
	a, b := s.home[f.Src], s.home[f.Dst]
	via := -1
	for sw := range s.swProcs {
		if sw != a && sw != b {
			via = sw
			break
		}
	}
	p := s.swProcs[via][0]

	m := s.beginProbe()
	r := s.arena.alloc(3)
	r[0], r[1], r[2] = a, via, b
	s.setRoute(fi, r)
	s.reattach(p, a)
	s.keep()

	if s.home[p] != a || len(s.routes[fi]) != 3 {
		t.Fatal("keep lost mutations")
	}
	if len(s.journal) != 0 || s.probing || s.arena.off == m.off {
		t.Fatalf("after keep: journal len=%d probing=%v arena offset %d (mark %d)", len(s.journal), s.probing, s.arena.off, m.off)
	}
	checkStateInvariants(t, s)
}

// TestJournalMergeShapedRollback is the shape of a discarded merge attempt:
// a probe moves a whole switch's processors, Best_Route and eliminatePipes
// price their candidates without touching the journal and commit their
// winners into it, and the rollback must undo all of it — placement, routes,
// tables and the arena position — leaving only the emptied switch's processor
// list reversed, which mergeRefine sorts.
func TestJournalMergeShapedRollback(t *testing.T) {
	s := threeSwitchState(t, 23)
	before := snapshotFull(s)
	ci, off := s.arena.ci, s.arena.off
	a, b := 0, 1
	listA := fmt.Sprint(s.swProcs[a])
	procs := append([]int(nil), s.swProcs[b]...)

	m := s.beginProbe()
	for _, p := range procs {
		s.reattach(p, a)
	}
	inner := 0
	for fi, f := range s.flows {
		ha, hb := s.home[f.Src], s.home[f.Dst]
		if ha == hb {
			continue
		}
		s.setRoute(fi, s.viaRoute(ha, 3-ha-hb, hb)) // three switches: the third is the via
		inner++
	}
	n := len(s.journal)
	s.bestRoute([]int{a}, nil)
	s.eliminatePipes()
	if inner == 0 || !s.probing || len(s.journal) <= n {
		t.Fatalf("%d reroutes, probing %v, journal %d then %d: Best_Route committed nothing for the rollback to undo", inner, s.probing, n, len(s.journal))
	}
	s.rollback(m)

	if !equalSnapshots(before, snapshotFull(s)) {
		t.Fatal("outer rollback did not restore placement and routes")
	}
	if s.arena.ci != ci || s.arena.off != off {
		t.Fatalf("arena at (%d,%d) after rollback, mark was (%d,%d)", s.arena.ci, s.arena.off, ci, off)
	}
	if len(s.journal) != 0 || s.probing {
		t.Fatalf("journal not drained: len=%d probing=%v", len(s.journal), s.probing)
	}
	if got := fmt.Sprint(s.swProcs[a]); got != listA {
		t.Fatalf("receiving switch's list %s, was %s", got, listA)
	}
	for i, p := range s.swProcs[b] {
		if p != procs[len(procs)-1-i] {
			t.Fatalf("emptied switch's list %v, want %v reversed", s.swProcs[b], procs)
		}
	}
	checkStateInvariants(t, s)
}

func TestArenaChunkingAndRestore(t *testing.T) {
	var a routeArena
	mark := [2]int{a.ci, a.off}
	var routes [][]int
	// Cross several chunk boundaries.
	for i := 0; i < 900; i++ {
		r := a.alloc(3)
		r[0], r[1], r[2] = i, i+1, i+2
		routes = append(routes, r)
	}
	for i, r := range routes {
		if r[0] != i || r[1] != i+1 || r[2] != i+2 {
			t.Fatalf("route %d corrupted: %v", i, r)
		}
	}
	if len(a.chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(a.chunks))
	}
	// Oversized allocations bypass the arena.
	big := a.alloc(arenaChunkInts + 1)
	if len(big) != arenaChunkInts+1 {
		t.Fatal("oversized alloc wrong length")
	}
	ci, off := a.ci, a.off
	big2 := a.alloc(arenaChunkInts + 5)
	_ = big2
	if a.ci != ci || a.off != off {
		t.Fatal("oversized alloc consumed arena space")
	}
	// Pop to the mark and re-allocate: same storage, fresh values.
	a.restore(mark[0], mark[1])
	r := a.alloc(3)
	if &r[0] != &routes[0][0] {
		t.Fatal("restore did not pop to the mark")
	}
}

func TestArenaRoutesSurviveGrowStride(t *testing.T) {
	s := threeSwitchState(t, 19)
	fi := crossFlow(t, s)
	f := s.flows[fi]
	a, b := s.home[f.Src], s.home[f.Dst]
	via := 3 - a - b
	if via < 0 || via >= len(s.swProcs) {
		for sw := range s.swProcs {
			if sw != a && sw != b {
				via = sw
			}
		}
	}
	r := s.arena.alloc(3)
	r[0], r[1], r[2] = a, via, b
	s.setRoute(fi, r)
	direct := s.cachedDirect(a, b)

	// Past 64 switches, so the live set needs a second word.
	oldStride := s.stride
	s.growStride(max(2*oldStride, 65))
	if s.stride <= oldStride {
		t.Fatalf("stride did not grow: %d", s.stride)
	}
	got := s.routes[fi]
	if len(got) != 3 || got[0] != a || got[1] != via || got[2] != b {
		t.Fatalf("arena route lost across growStride: %v", got)
	}
	// Cached headers are remapped to the new stride and still shared.
	if d2 := s.cachedDirect(a, b); &d2[0] != &direct[0] {
		t.Fatal("cached direct header not remapped in place")
	}
	checkStateInvariants(t, s)
}

func TestStatePoolResetReproducible(t *testing.T) {
	p := trace.BuildPhased("pool", 8, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1), model.F(2, 3), model.F(4, 5), model.F(6, 7)}, Bytes: 64},
		{Flows: []model.Flow{model.F(1, 4), model.F(3, 6), model.F(5, 0), model.F(7, 2)}, Bytes: 64},
	})
	k := newKernel(p, model.MaxCliqueSet(p))
	run := func() fullSnapshot {
		s := newState(k, Options{Seed: 3}.Normalized(), 3, &Stats{})
		defer s.release()
		s.partition()
		checkStateInvariants(t, s)
		return snapshotFull(s)
	}
	first := run()
	for rep := 0; rep < 3; rep++ {
		if got := run(); !equalSnapshots(first, got) {
			t.Fatalf("pooled rerun %d diverged from first run", rep)
		}
	}
}

// TestStatePoolMixedWidths runs, through one pool, patterns whose flow
// universes need one and two bitset words. A pooled state keeps its pipe
// sets across every pattern that fits the widest it has served, so each set
// it creates must have that capacity. The order matters: a wide pattern on
// few switches, a narrow one on more (creating sets for pipes the first
// never used), then a wide one that reaches those pipes — which indexed a
// one-word set out of range and took nocd down. Designs must equal what a
// fresh pool produces.
func TestStatePoolMixedWidths(t *testing.T) {
	freshPool := func() { statePool = sync.Pool{New: func() any { return new(state) }} }
	// Nine processors exchanging all-to-all: 72 flows on three switches.
	var allToAll trace.PhaseSpec
	for s := 0; s < 9; s++ {
		for d := 0; d < 9; d++ {
			if s != d {
				allToAll.Flows = append(allToAll.Flows, model.F(s, d))
			}
		}
	}
	seq := []*model.Pattern{trace.BuildPhased("all-to-all.9", 9, []trace.PhaseSpec{allToAll})}
	for _, c := range []struct {
		name  string
		procs int
	}{{"CG", 16}, {"FFT", 16}, {"SP", 9}, {"SP", 16}, {"FFT", 8}, {"FFT", 16}} {
		p, err := nas.Generate(c.name, c.procs, quickNASConfig())
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, p)
	}
	for i, wantWide := range []bool{true, false, true, false, true, false, true} {
		if n := len(seq[i].Flows()); (n > 64) != wantWide || n > 128 {
			t.Fatalf("%s has %d flows; the sequence must alternate across the one-word boundary", seq[i].Name, n)
		}
	}
	// The count slab is cut into rows of the kernel's clique count, so the
	// same pool must also survive that count going up and down: CG/16 has 3
	// maximum cliques, its jittered trace 29, a ring collective 1.
	cg, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := collective.Generate("ring-allreduce", 16, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	jitter := trace.ApplySkew(cg, 0.5, 1)
	byCliques := []*model.Pattern{cg, jitter, ring, jitter, cg}
	for i, want := range []int{3, 29, 1, 29, 3} {
		if n := len(model.MaxCliqueSet(byCliques[i])); n != want {
			t.Fatalf("%s has %d maximum cliques, the sequence assumes %d", byCliques[i].Name, n, want)
		}
	}
	freshPool()
	for _, p := range byCliques {
		s := newState(newKernel(p, model.MaxCliqueSet(p)), Options{Seed: 1}.Normalized(), 1, &Stats{})
		checkStateInvariants(t, s) // a recycled slab reads as empty
		s.partition()
		checkStateInvariants(t, s)
		s.release()
	}
	for _, seq := range [][]*model.Pattern{seq, byCliques} {
		for _, workers := range []int{1, 2} {
			opt := Options{Seed: 1, Restarts: 2, Workers: workers}
			want := make([][]byte, len(seq))
			for i, p := range seq {
				freshPool()
				want[i] = designBytes(t, synthOrDie(t, p, opt))
			}
			freshPool()
			for round := 0; round < 2; round++ {
				for i, p := range seq {
					if got := designBytes(t, synthOrDie(t, p, opt)); !bytes.Equal(got, want[i]) {
						t.Fatalf("%s workers=%d round %d: pooled design differs from a fresh pool's", p.Name, workers, round)
					}
				}
			}
		}
	}
}

// TestMoveEngineRandomEquivalence drives two states through the same
// randomized interleaving of splits, reattaches, move/swap probes, anneal and
// greedy optimization, and global refinement — sref through the oracle's
// entry points in moveref_test.go (tryMove+undo, optimizeMovesRef,
// swapRefineRef), snew through the production ones (probeMove,
// optimizeMoves, swapRefine) — and requires identical deltas, stats, and full
// state, every switch's processor list in order included, at every step.
// After every operation the cost tables of both states are also held to a
// from-scratch recomputation: estDegree against estDegreeRef for every
// switch, globalCost against localCostRef over every switch pair, and
// through checkStateInvariants every direction's count row, width and quad,
// every pair width and width sum, the objective's totals, the cross counts,
// and portBound against the degree it bounds. The last two trials run a
// pattern of disjoint pairs and one crossing flow, whose refined states seal
// most processors, so the unpriced probes of sealed ones (sealed, stuck) and
// the swap passes that commit nothing are held to the oracle too.
func TestMoveEngineRandomEquivalence(t *testing.T) {
	phases := []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1), model.F(2, 3), model.F(4, 5), model.F(6, 7), model.F(8, 9)}, Bytes: 64},
		{Flows: []model.Flow{model.F(1, 4), model.F(3, 6), model.F(5, 8), model.F(7, 0), model.F(9, 2)}, Bytes: 64},
		{Flows: []model.Flow{model.F(0, 5), model.F(1, 6), model.F(2, 7), model.F(3, 8)}, Bytes: 32},
	}
	sealedPhases := []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1), model.F(2, 3), model.F(4, 5), model.F(6, 7), model.F(8, 9)}, Bytes: 64},
		{Flows: []model.Flow{model.F(1, 2)}, Bytes: 64},
	}
	sealedProbes := 0
	for trial := 0; trial < 10; trial++ {
		seed := int64(trial)
		pat := trace.BuildPhased("eq", 10, phases)
		if trial >= 8 {
			pat = trace.BuildPhased("sealed", 10, sealedPhases)
		}
		cliques := model.MaxCliqueSet(pat)
		opt := Options{Seed: seed}
		if trial%2 == 1 {
			opt.Variant = Annealed
		}
		sref := newState(newKernel(pat, cliques), opt.Normalized(), seed, &Stats{})
		snew := newState(newKernel(pat, cliques), opt.Normalized(), seed, &Stats{})

		checkCosts := func(s *state, who, op string) {
			t.Helper()
			var pairs [][2]int
			all := s.allSwitches()
			for a := range all {
				if got, want := s.estDegree(a), s.estDegreeRef(a); got != want {
					t.Fatalf("trial %d: %s estDegree(%d) = %d after %s, recomputed %d", trial, who, a, got, op, want)
				}
				for b := a + 1; b < s.nsw(); b++ {
					pairs = append(pairs, [2]int{a, b})
				}
			}
			if got, want := s.globalCost(), s.localCostRef(pairs, all); got != want {
				t.Fatalf("trial %d: %s globalCost = %d after %s, recomputed %d", trial, who, got, op, want)
			}
		}
		check := func(op string) {
			t.Helper()
			checkCosts(sref, "ref", op)
			checkCosts(snew, "new", op)
			if !equalSnapshots(snapshotFull(sref), snapshotFull(snew)) {
				t.Fatalf("trial %d: state diverged after %s", trial, op)
			}
			if got, want := listsOf(snew), listsOf(sref); got != want {
				t.Fatalf("trial %d: processor lists diverged after %s:\nref=%s\nnew=%s", trial, op, want, got)
			}
			if *sref.stats != *snew.stats {
				t.Fatalf("trial %d: stats diverged after %s:\nref=%+v\nnew=%+v",
					trial, op, *sref.stats, *snew.stats)
			}
			checkStateInvariants(t, sref)
			checkStateInvariants(t, snew)
		}

		rng := rand.New(rand.NewSource(seed*31 + 7))
		for op := 0; op < 40; op++ {
			switch rng.Intn(6) {
			case 0:
				var eligible []int
				for sw, procs := range sref.swProcs {
					if len(procs) >= 2 {
						eligible = append(eligible, sw)
					}
				}
				if len(eligible) > 0 && len(sref.swProcs) < 6 {
					sw := eligible[rng.Intn(len(eligible))]
					i1 := sref.split(sw)
					i2 := snew.split(sw)
					if i1 != i2 {
						t.Fatalf("split returned different switch IDs %d vs %d", i1, i2)
					}
					check("split")
				}
			case 1:
				p := rng.Intn(10)
				to := rng.Intn(len(sref.swProcs))
				if to != sref.home[p] {
					sref.reattach(p, to)
					snew.reattach(p, to)
					check("reattach")
				}
			case 2:
				p := rng.Intn(10)
				to := rng.Intn(len(sref.swProcs))
				if to != sref.home[p] {
					d1, undo := sref.tryMove(p, to)
					undo()
					d2 := snew.probeMove(p, to, noBound)
					if d1 != d2 {
						t.Fatalf("trial %d: tryMove(%d,%d) delta %d, probeMove %d", trial, p, to, d1, d2)
					}
					check("probeMove")
				}
			case 3:
				if len(sref.swProcs) >= 2 {
					i := rng.Intn(len(sref.swProcs))
					j := rng.Intn(len(sref.swProcs))
					if i != j {
						sref.optimizeMovesRef(i, j)
						snew.optimizeMoves(i, j)
						check("optimizeMoves")
					}
				}
			case 4:
				for p := range snew.procs {
					for q := p + 1; q < snew.procs; q++ {
						if snew.home[p] != snew.home[q] && snew.sealed(p) && snew.sealed(q) {
							sealedProbes++
						}
					}
				}
				sref.swapRefineRef()
				snew.swapRefine()
				check("swapRefine")
			case 5:
				sref.globalRefine()
				snew.globalRefine()
				check("globalRefine")
			}
		}
		sref.release()
		snew.release()
	}
	if sealedProbes == 0 {
		t.Fatal("no swap pass met a pair of sealed processors")
	}
}

// TestStuckRelocationsLeaveLists holds globalRefine's unpriced relocations
// of stuck processors to the priced ones (priceEveryTarget) in the state
// where the list order they leave outlives the sweep: every processor on one
// switch, within budget, with every flow local, so the swap pass probes
// nothing and leaves the lists as the relocations did. Anywhere else the
// swap pass that follows rewrites every list.
func TestStuckRelocationsLeaveLists(t *testing.T) {
	run := func(every bool) string {
		priceEveryTarget = every
		defer func() { priceEveryTarget = false }()
		s := testState(t, 4, []trace.PhaseSpec{{Flows: []model.Flow{model.F(0, 1), model.F(2, 3)}, Bytes: 64}}, 1)
		defer s.release()
		s.split(0)
		for _, p := range slices.Clone(s.swProcs[1]) {
			s.reattach(p, 0)
		}
		slices.Reverse(s.swProcs[0])
		if got := listsOf(s); got == "[[0 1 2 3] []]" {
			t.Fatalf("lists %s already ascending", got)
		}
		s.globalRefine()
		checkStateInvariants(t, s)
		return listsOf(s)
	}
	if got, want := run(false), run(true); got != want {
		t.Fatalf("lists %s, the priced relocations leave %s", got, want)
	}
}

// FuzzMoveEngine decodes its input into a small phased pattern (flows may
// repeat across phases, so a flow can sit in several cliques) and a sequence
// of engine operations — splits, moves, one-intermediate reroutes, swaps, a
// rolled-back probe scope, Best_Route, eliminatePipes, merge sweeps. After
// every one it prices a move and a swap, a whole family of each kind — a
// processor's relocations, a group's reroutes, a pipe's eliminations, each
// frozen once — and the backbone proposal with the what-if evaluator and with
// the mutating oracle (whatif_test.go's compare helpers) and requires equal
// deltas, and holds every one of those candidates' floors to its exact price
// (checkBounds). It then holds the cost tables to the from-scratch oracle,
// portBound to the degree it bounds, every route to a simple path and the
// evaluator's released scratch to all-zero (checkStateInvariants).
// When two or more switches are dead it requires every one to price p's
// relocation and a pipe's elimination as the lowest one does
// (compareDeadTwins). A globalRefine op runs its relocations and swap
// passes, the unpriced probes of sealed processors among them, under the
// same checks.
func FuzzMoveEngine(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		buf := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(sevenKinds(buf))
	}
	// Eight processors and six flows, each between an odd and an even one;
	// six splits, then every processor moves onto switch 0 or 1, which
	// leaves the other switches dead. The second seed then routes processor
	// 0's flow to 1 through a dead switch, which lives on with no processor,
	// prices processor 4's relocations (whose flow shares the clique), and
	// runs Best_Route, eliminatePipes and a merge sweep.
	empty := []byte{4, 0, 5, 0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 0}
	for i := 0; i < 6; i++ {
		empty = append(empty, 0, 0, 0, byte(i%3), 0)
	}
	for p := 0; p < 8; p++ {
		empty = append(empty, 1, byte(p), 0, byte(p%2), 0)
	}
	f.Add(empty)
	f.Add(append(slices.Clone(empty), 2, 0, 1, 3, 0, 0, 4, 0, 0, 0, 5, 0, 1, 4, 1, 6, 2, 3, 5, 2))
	// Disjoint pairs (0,1), (2,3), (4,5) and one crossing flow (1,2) on six
	// processors; three splits, then two global refinements, which leave
	// most processors sealed and probe them.
	f.Add([]byte{2, 1, 2, 0, 1, 2, 3, 4, 5, 0, 1, 2,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 7, 0, 0, 0, 0, 7, 1, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		procs := 4 + next()%7
		var phases []trace.PhaseSpec
		for ph, n := 0, 1+next()%4; ph < n; ph++ {
			spec := trace.PhaseSpec{Bytes: 64}
			for k, m := 0, 1+next()%6; k < m; k++ {
				spec.Flows = append(spec.Flows, model.F(next()%procs, next()%procs))
			}
			phases = append(phases, spec)
		}
		pat := trace.BuildPhased("fuzz", procs, phases)
		s := newState(newKernel(pat, model.MaxCliqueSet(pat)), Options{Seed: 1}.Normalized(), 1, &Stats{})
		defer s.release()
		if len(s.flows) == 0 {
			return
		}
		for op := 0; op < 48 && len(data) > 0; op++ {
			kind := next() % 8
			p, q := next()%procs, next()%procs
			sw := next() % len(s.swProcs)
			fi := next() % len(s.flows)
			a, b := s.home[s.flows[fi].Src], s.home[s.flows[fi].Dst]
			switch kind {
			case 0:
				if len(s.swProcs) < 6 && len(s.swProcs[sw]) >= 2 {
					s.split(sw)
				}
			case 1:
				if sw != s.home[p] {
					s.reattach(p, sw)
				}
			case 2:
				if a != b && sw != a && sw != b {
					s.setRoute(fi, []int{a, sw, b})
				}
			case 3:
				if s.home[p] != s.home[q] {
					s.swapHomes(p, q)
				}
			case 4:
				m := s.beginProbe()
				if sw != s.home[p] {
					s.reattach(p, sw)
				}
				s.bestRoute(s.allSwitches(), nil)
				s.rollback(m)
			case 5:
				s.bestRoute(s.allSwitches(), nil)
				s.eliminatePipes()
			case 6:
				s.mergeRefine()
			case 7:
				s.globalRefine()
			}
			if sw != s.home[p] {
				compareMove(t, s, p, sw)
			}
			compareRelocations(t, s, p)
			if s.home[p] != s.home[q] {
				compareSwap(t, s, p, q)
			}
			compareGroup(t, s, fi)
			comparePipe(t, s, s.home[p], sw)
			compareDeadTwins(t, s, p, s.home[p], sw)
			compareBackbone(t, s)
			checkStateInvariants(t, s)
		}
	})
}

// sevenKinds rewrites the op kinds of a FuzzMoveEngine input to their value
// modulo 7, so a seed drawn before the globalRefine op was added runs the
// ops it ran then.
func sevenKinds(buf []byte) []byte {
	at := func(i int) int {
		if i < len(buf) {
			return int(buf[i])
		}
		return 0
	}
	i := 2
	for ph := 0; ph < 1+at(1)%4; ph++ {
		i += 1 + 2*(1+at(i)%6)
	}
	for ; i < len(buf); i += 5 {
		buf[i] %= 7
	}
	return buf
}
