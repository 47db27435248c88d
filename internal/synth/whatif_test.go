package synth

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// The what-if evaluator against the mutate-and-measure oracle of
// moveref_test.go, candidate by candidate. Each compare* helper prices
// candidates both ways on the same state, requires equal deltas, and requires
// the what-if to have left placement and routes alone and the processor lists
// as the oracle's apply/undo round trip leaves them. A family helper freezes
// the shared departure once and prices every candidate of the family on it,
// the oracle's apply/undo running between candidates while the base stays
// frozen. Every candidate is priced exactly (noBound) and then at the bounds
// of checkBounds, which hold the floor and the bounded pricer to the
// contract. Callers finish with checkStateInvariants, which holds the tables
// to a recomputation and the evaluator's scratch, released, to all-zero.

// checkBounds prices a candidate whose exact price is exact at bounds on both
// sides of the pricer's contract (whatif.go): math.MinInt, where the floor
// stops at the base and the hops; 0, the bound of eliminatePipes and
// swapRefine; the exact price; and one above it. Below its bound a result
// must be the exact price; at or above it, no more than the exact price,
// which therefore reaches the bound too. One above the exact price is where
// an unsound floor shows: wiFloor reads joins until the floor reaches the
// bound, so a floor above the exact price is returned there.
func checkBounds(t *testing.T, what string, exact int, price func(bound int) int) {
	t.Helper()
	for _, bound := range []int{math.MinInt, 0, exact, exact + 1} {
		if got := price(bound); got < bound && got != exact || got >= bound && got > exact {
			t.Fatalf("%s at bound %d = %d, the exact price %d", what, bound, got, exact)
		}
	}
}

// compareProbe prices one candidate with probe, then with the oracle's try
// function and its undo, then at checkBounds' bounds.
func compareProbe(t *testing.T, s *state, what string, probe func(bound int) int, try func() (int, func())) {
	t.Helper()
	before := snapshotFull(s)
	got := probe(noBound)
	lists := listsOf(s)
	if !equalSnapshots(before, snapshotFull(s)) {
		t.Fatalf("%s changed placement or routes", what)
	}
	want, undo := try()
	undo()
	if got != want {
		t.Fatalf("%s = %d, the oracle's %d", what, got, want)
	}
	if after := listsOf(s); after != lists {
		t.Fatalf("%s left lists %s, the oracle's round trip %s", what, lists, after)
	}
	checkBounds(t, what, want, probe)
}

func compareMove(t *testing.T, s *state, p, to int) {
	t.Helper()
	compareProbe(t, s, fmt.Sprintf("probeMove(%d,%d)", p, to),
		func(bound int) int { return s.probeMove(p, to, bound) }, func() (int, func()) { return s.tryMove(p, to) })
}

// compareSwap prices a swap with probeSwap, after the list moves swapRefine
// makes for it (probeSwap itself moves none).
func compareSwap(t *testing.T, s *state, p, q int) {
	t.Helper()
	compareProbe(t, s, fmt.Sprintf("probeSwap(%d,%d)", p, q), func(bound int) int {
		s.procToEnd(p)
		s.procToEnd(q)
		return s.probeSwap(p, q, bound)
	}, func() (int, func()) { return s.trySwap(p, q) })
}

// compareRelocations freezes p's departure once and prices its relocation to
// every other switch on it, as globalRefine does.
func compareRelocations(t *testing.T, s *state, p int) {
	t.Helper()
	s.wiDepart(p)
	for to := range s.swProcs {
		if to != s.home[p] {
			compareProbe(t, s, fmt.Sprintf("wiArrive(%d,%d)", p, to),
				func(bound int) int { return s.wiArrive(p, to, bound) }, func() (int, func()) { return s.tryMove(p, to) })
		}
	}
	s.wiRelease()
}

// compareDeadTwins holds the premise the collapsed scans rest on (twinTargets):
// every dead switch prices p's relocation, and the elimination of pipe (a,b)
// through it, as the lowest dead switch does.
func compareDeadTwins(t *testing.T, s *state, p, a, b int) {
	t.Helper()
	var dead []int
	for sw := range s.swProcs {
		if s.dead(sw) {
			dead = append(dead, sw)
		}
	}
	if len(dead) < 2 {
		return
	}
	s.wiDepart(p)
	first := s.wiArrive(p, dead[0], noBound)
	for _, sw := range dead[1:] {
		if got := s.wiArrive(p, sw, noBound); got != first {
			t.Fatalf("relocating %d to dead switch %d prices %d, to dead switch %d %d", p, sw, got, dead[0], first)
		}
	}
	s.wiRelease()
	if a == b {
		return
	}
	s.wiPipeDepart(slices.Clone(s.pipeFlowIDs(a, b)), a, b)
	first, firstM := 0, -1
	for _, m := range dead {
		if m == a || m == b {
			continue
		}
		if got := s.wiPipeVia(m, noBound); firstM < 0 {
			first, firstM = got, m
		} else if got != first {
			t.Fatalf("emptying pipe (%d,%d) via dead switch %d prices %d, via dead switch %d %d", a, b, m, got, firstM, first)
		}
	}
	s.wiRelease()
}

// compareGroup prices rerouting flow fi — with its reverse when that mirrors
// it, as bestRoute groups them — onto its direct path alone, then freezes the
// group's departure once and prices the direct path and every one-intermediate
// path on it, as bestRoute does.
func compareGroup(t *testing.T, s *state, fi int) {
	t.Helper()
	f := s.flows[fi]
	a, b := s.home[f.Src], s.home[f.Dst]
	if a == b {
		return
	}
	g := group{fi, -1}
	if ri := s.revID[fi]; ri >= 0 && isMirror(s.routes[ri], s.routes[fi]) {
		g[1] = ri
	}
	check := func(what string, cand []int, price func(bound int) int) {
		t.Helper()
		before := snapshotFull(s)
		got := price(noBound)
		if !equalSnapshots(before, snapshotFull(s)) {
			t.Fatalf("%s(%v,%v) changed placement or routes", what, g, cand)
		}
		want := s.groupRouteDeltaRef(g, cand)
		if got != want {
			t.Fatalf("%s(%v,%v) = %d from routes %v %v, the oracle's %d", what, g, cand, got, s.routes[fi], s.routes[max(g[1], 0)], want)
		}
		checkBounds(t, fmt.Sprintf("%s(%v,%v)", what, g, cand), want, price)
	}
	direct := []int{a, b}
	check("groupRouteDelta", direct, func(bound int) int { return s.groupRouteDelta(g, direct, bound) })
	s.wiGroupDepart(g)
	for m := -1; m < s.nsw(); m++ {
		cand := direct
		if m >= 0 {
			if m == a || m == b {
				continue
			}
			cand = []int{a, m, b}
		}
		check("wiGroupRoute", cand, func(bound int) int { return s.wiGroupRoute(g, cand, bound) })
	}
	s.wiRelease()
}

// comparePipe freezes the emptying of pipe (a,b) once and prices it through
// every intermediate (-1: direct paths only) on it, as eliminatePipes does.
func comparePipe(t *testing.T, s *state, a, b int) {
	t.Helper()
	if a == b {
		return
	}
	ids := slices.Clone(s.pipeFlowIDs(a, b))
	s.wiPipeDepart(ids, a, b)
	for m := -1; m < s.nsw(); m++ {
		if m == a || m == b {
			continue
		}
		before := snapshotFull(s)
		got := s.wiPipeVia(m, noBound)
		if !equalSnapshots(before, snapshotFull(s)) {
			t.Fatalf("wiPipeVia(%v,%d,%d,%d) changed placement or routes", ids, a, b, m)
		}
		want := s.pipeEliminationDeltaRef(ids, a, b, m)
		if got != want {
			t.Fatalf("wiPipeVia(%v,%d,%d,%d) = %d, the oracle's %d", ids, a, b, m, got, want)
		}
		checkBounds(t, fmt.Sprintf("wiPipeVia(%v,%d,%d,%d)", ids, a, b, m), want,
			func(bound int) int { return s.wiPipeVia(m, bound) })
	}
	s.wiRelease()
}

// compareBackbone prices backboneReroute's proposal, when the state has one,
// with the what-if evaluator (wiBackbone) and with the oracle
// (backboneDeltaRef: install every path, recompute the whole objective, put
// the routes back), then at checkBounds' bounds.
func compareBackbone(t *testing.T, s *state) {
	t.Helper()
	if paths := s.backboneProposal(); paths != nil {
		compareProbe(t, s, "wiBackbone", func(bound int) int { return s.wiBackbone(paths, bound) },
			func() (int, func()) { return s.backboneDeltaRef(paths) })
	}
}

// noiFFT16 is the NoI sub-pattern hier.SplitPattern cuts from FFT/16 under
// four clusters of four: every message that crosses a cluster boundary, all
// sixteen processors being boundary gateways. It is the probe-bound case of
// the cold ledger — a level whose every restart runs every round.
func noiFFT16(t testing.TB) *model.Pattern {
	t.Helper()
	fft, err := nas.Generate("FFT", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	noi := &model.Pattern{Name: fft.Name + ".noi", Procs: 16}
	kept := make(map[int]int)
	for _, m := range fft.Messages {
		if m.Src/4 != m.Dst/4 {
			kept[m.ID] = len(noi.Messages)
			m.ID = len(noi.Messages)
			noi.Messages = append(noi.Messages, m)
		}
	}
	for _, ph := range fft.Phases {
		var ids []int
		for _, mi := range ph.Messages {
			if ni, ok := kept[mi]; ok {
				ids = append(ids, ni)
			}
		}
		ph.Messages = ids
		noi.Phases = append(noi.Phases, ph)
	}
	return noi
}

// whatIfStates builds random and refined states of three kernels: BT/16 (two
// bitset words), the FFT/16 NoI level (3 cliques, 48 flows, one word) and
// the jittered CG/16 trace (29 cliques, flows in several cliques at once).
// Each state takes 24 random splits, relocations and one-intermediate
// reroutes, handing itself to visit after each with n = 8, then partition
// refines it and visit gets it once more with n = 64. visit may draw from
// rng, which also draws the operations.
func whatIfStates(t *testing.T, visit func(s *state, rng *rand.Rand, n int)) {
	t.Helper()
	bt, err := nas.Generate("BT", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pat            *model.Pattern
		cliques, flows int
	}{
		{bt, 0, 0},
		{noiFFT16(t), 3, 48},
		{trace.ApplySkew(cg, 0.5, 1), 29, 0},
	} {
		k := newKernel(c.pat, model.MaxCliqueSet(c.pat))
		if c.cliques != 0 && len(k.cliques) != c.cliques || c.flows != 0 && len(k.flows) != c.flows {
			t.Fatalf("%s: %d cliques, %d flows; the test assumes %d and %d", c.pat.Name, len(k.cliques), len(k.flows), c.cliques, c.flows)
		}
		for seed := int64(1); seed <= 2; seed++ {
			s := newState(k, Options{Seed: seed}.Normalized(), seed, &Stats{})
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 24; op++ {
				switch sw := rng.Intn(s.nsw()); {
				case op%3 == 0 && len(s.swProcs[sw]) >= 2 && s.nsw() < 8:
					s.split(sw)
				case op%3 == 1:
					if p := rng.Intn(s.procs); sw != s.home[p] {
						s.reattach(p, sw)
					}
				default:
					fi := rng.Intn(len(s.flows))
					f := s.flows[fi]
					if a, b := s.home[f.Src], s.home[f.Dst]; a != b && sw != a && sw != b {
						s.setRoute(fi, []int{a, sw, b})
					}
				}
				visit(s, rng, 8)
			}
			s.partition()
			visit(s, rng, 64)
			s.release()
		}
	}
}

// TestWhatIfMatchesOracle is the lockstep for every kind of what-if delta —
// one-shot moves, swaps and group reroutes, and the relocation, Best_Route and
// pipe-elimination families, each frozen once — and for the bounded pricer's
// contract against the oracle (checkBounds), on whatIfStates' random and
// refined states.
func TestWhatIfMatchesOracle(t *testing.T) {
	whatIfStates(t, func(s *state, rng *rand.Rand, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			p, q := rng.Intn(s.procs), rng.Intn(s.procs)
			a, b := rng.Intn(s.nsw()), rng.Intn(s.nsw())
			if a != s.home[p] {
				compareMove(t, s, p, a)
			}
			compareRelocations(t, s, p)
			if s.home[p] != s.home[q] {
				compareSwap(t, s, p, q)
			}
			compareGroup(t, s, rng.Intn(len(s.flows)))
			comparePipe(t, s, a, b)
		}
		compareBackbone(t, s)
		checkStateInvariants(t, s)
	})
}

// TestSealedProbesCannotWin holds the premise of the unpriced probes (sealed,
// stuck) on whatIfStates' states: a swap of two sealed processors on
// different switches prices at 0 or more, and so does every relocation of a
// stuck processor — sealed, on a home within budget. Both are priced exactly
// (noBound), and each kind must occur.
func TestSealedProbesCannotWin(t *testing.T) {
	swaps, moves := 0, 0
	whatIfStates(t, func(s *state, _ *rand.Rand, _ int) {
		t.Helper()
		for p := range s.procs {
			for q := p + 1; q < s.procs; q++ {
				if s.home[p] == s.home[q] || !s.sealed(p) || !s.sealed(q) {
					continue
				}
				if d := s.probeSwap(p, q, noBound); d < 0 {
					t.Fatalf("swapping sealed processors %d and %d prices %d", p, q, d)
				}
				swaps++
			}
			if !s.stuck(p) {
				continue
			}
			for to := range s.nsw() {
				if to == s.home[p] {
					continue
				}
				if d := s.probeMove(p, to, noBound); d < 0 {
					t.Fatalf("relocating stuck processor %d to switch %d prices %d", p, to, d)
				}
				moves++
			}
		}
		checkStateInvariants(t, s)
	})
	if swaps == 0 || moves == 0 {
		t.Fatalf("%d sealed swaps and %d stuck relocations priced; the states must hold both", swaps, moves)
	}
	t.Logf("%d sealed swaps, %d stuck relocations", swaps, moves)
}

// TestWhatIfFloorSound holds the floor (wiFloor) to the price it bounds on
// whatIfStates' states, for every kind of candidate: moves, relocation
// families, swaps, group routes, pipe intermediates and the backbone
// proposal. Read over every join (noBound), the floor must be at most the
// exact price, and equal to it for a candidate that states no join, whose
// price is the base and the arrival's excess alone. The states must hold
// candidates whose floor has a penalty term (it reads lower with the
// budgets lifted) and joinless arrivals that add excess, or the test fails.
func TestWhatIfFloorSound(t *testing.T) {
	const unpriced = math.MinInt
	floor, base, joinless := unpriced, 0, false
	priced, penalised, arrivals := 0, 0, 0
	exactPricing = func(s *state, to int) {
		floor, base, joinless = s.wiFloor(to, noBound), s.wi.base, len(s.wi.cand) == 0
		deg, procs := s.opt.MaxDegree, s.opt.MaxProcsPerSwitch
		s.opt.MaxDegree, s.opt.MaxProcsPerSwitch = math.MaxInt32, math.MaxInt32
		if s.wiFloor(to, noBound) < floor {
			penalised++
		}
		s.opt.MaxDegree, s.opt.MaxProcsPerSwitch = deg, procs
	}
	defer func() { exactPricing = nil }()
	check := func(what string, price func() int) {
		t.Helper()
		floor = unpriced
		got := price()
		switch {
		case floor == unpriced: // returned without pricing (wiPipeVia's stuck flows)
			return
		case floor > got:
			t.Fatalf("%s: floor %d above the exact price %d", what, floor, got)
		case joinless && floor != got:
			t.Fatalf("%s states no join: floor %d, the exact price %d", what, floor, got)
		}
		priced++
		if joinless && got > base {
			arrivals++
		}
	}
	whatIfStates(t, func(s *state, rng *rand.Rand, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			p, q := rng.Intn(s.procs), rng.Intn(s.procs)
			a, b := rng.Intn(s.nsw()), rng.Intn(s.nsw())
			if a != s.home[p] {
				check(fmt.Sprintf("probeMove(%d,%d)", p, a), func() int { return s.probeMove(p, a, noBound) })
			}
			s.wiDepart(p)
			for to := range s.nsw() {
				if to != s.home[p] {
					check(fmt.Sprintf("wiArrive(%d,%d)", p, to), func() int { return s.wiArrive(p, to, noBound) })
				}
			}
			s.wiRelease()
			if s.home[p] != s.home[q] {
				check(fmt.Sprintf("probeSwap(%d,%d)", p, q), func() int { return s.probeSwap(p, q, noBound) })
			}
			fi := rng.Intn(len(s.flows))
			f := s.flows[fi]
			if ha, hb := s.home[f.Src], s.home[f.Dst]; ha != hb {
				g := group{fi, -1}
				if ri := s.revID[fi]; ri >= 0 && isMirror(s.routes[ri], s.routes[fi]) {
					g[1] = ri
				}
				s.wiGroupDepart(g)
				for m := -1; m < s.nsw(); m++ {
					cand := []int{ha, hb}
					if m >= 0 {
						if m == ha || m == hb {
							continue
						}
						cand = []int{ha, m, hb}
					}
					check(fmt.Sprintf("wiGroupRoute(%v,%v)", g, cand), func() int { return s.wiGroupRoute(g, cand, noBound) })
				}
				s.wiRelease()
			}
			if a != b {
				s.wiPipeDepart(slices.Clone(s.pipeFlowIDs(a, b)), a, b)
				for m := -1; m < s.nsw(); m++ {
					if m != a && m != b {
						check(fmt.Sprintf("wiPipeVia(%d,%d,%d)", a, b, m), func() int { return s.wiPipeVia(m, noBound) })
					}
				}
				s.wiRelease()
			}
		}
		if paths := s.backboneProposal(); paths != nil {
			check("wiBackbone", func() int { return s.wiBackbone(paths, noBound) })
		}
		checkStateInvariants(t, s)
	})
	if penalised == 0 || arrivals == 0 {
		t.Fatalf("%d candidates priced, %d with a penalty term in the floor, %d joinless arrivals adding excess; the states must hold both",
			priced, penalised, arrivals)
	}
	t.Logf("%d candidates priced, %d with a penalty term in the floor, %d joinless arrivals adding excess", priced, penalised, arrivals)
}

// TestWhatIfPitfalls drives the evaluator through the shapes a first version
// gets wrong, each on a hand-built state, against the oracle.
func TestWhatIfPitfalls(t *testing.T) {
	// Two cliques (phases), seven processors on three switches A={0,1,2},
	// B={3,4,5}, C={6}. Direction A→B carries two flows of clique 0 and one
	// of clique 1; processor 6 holds one more of clique 1 into B.
	build := func(t *testing.T) *state {
		s := testState(t, 7, []trace.PhaseSpec{
			{Flows: []model.Flow{model.F(0, 3), model.F(1, 4), model.F(5, 6)}, Bytes: 64},
			{Flows: []model.Flow{model.F(2, 5), model.F(6, 3), model.F(3, 0)}, Bytes: 64},
		}, 1)
		if len(s.cliques) != 2 {
			t.Fatalf("%d cliques, want one per phase", len(s.cliques))
		}
		s.split(0)
		s.split(0)
		for p, sw := range []int{0, 0, 0, 1, 1, 1, 2} {
			if s.home[p] != sw {
				s.reattach(p, sw)
			}
		}
		return s
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T, s *state)
	}{
		{"lose the max and gain elsewhere", func(t *testing.T, s *state) {
			// Swapping 0 and 6 takes a clique-0 flow off A→B, whose count
			// held the width, and puts a clique-1 flow on: counts (2,1)
			// become (1,2) and the width stays 2.
			if w, _ := s.dirStats(0, 1); w != 2 {
				t.Fatalf("A→B width %d, want 2", w)
			}
			compareSwap(t, s, 0, 6)
			// A move that only takes the maximum away must lower it.
			compareMove(t, s, 0, 2)
		}},
		{"both directions of a pair", func(t *testing.T, s *state) {
			// Moving 0 next to 3 empties B→A and takes one flow off A→B, and
			// touches nothing else: the pair's width falls by one, once.
			// Processor 3 sends to 0 and receives from 0 and 6: moving it
			// touches A→B, B→A and C→B at once, and swapping it with 0
			// reverses the pair's two directions.
			compareMove(t, s, 0, 1)
			compareMove(t, s, 3, 2)
			compareSwap(t, s, 3, 0)
			compareGroup(t, s, fid(t, s, model.F(0, 3)))
			compareRelocations(t, s, 3)
		}},
		{"swap of two processors sharing a flow", func(t *testing.T, s *state) {
			compareSwap(t, s, 0, 3) // (0,3) and (3,0) touch both
			compareSwap(t, s, 6, 5) // (5,6)
		}},
		{"empty departure", func(t *testing.T, s *state) {
			// With 4 next to 1, processor 1's one flow is local: its
			// departure states no direction, and the frozen base is the
			// processor leaving A alone — which, with A one processor over
			// its budget, is a change of excess every target must carry.
			s.reattach(4, 0)
			s.setBudgets(s.opt.MaxDegree, 3)
			s.wiDepart(1)
			if n := len(s.wi.dirs); n != 0 {
				t.Fatalf("processor 1's departure states %d directions, want none", n)
			}
			s.wiRelease()
			compareRelocations(t, s, 1)
			compareMove(t, s, 1, 2)
		}},
		{"candidate joins a frozen direction", func(t *testing.T, s *state) {
			// (1,4) over [A,C,B]: its detour through C rejoins both
			// directions the departure left. (6,3) over [C,A,B] crosses pipe
			// A–B: the base re-homes it onto C→B, and the intermediate C
			// puts A–B's own flows back on C→B and on C→A, which it left.
			s.setRoute(fid(t, s, model.F(1, 4)), []int{0, 2, 1})
			s.setRoute(fid(t, s, model.F(6, 3)), []int{2, 0, 1})
			compareGroup(t, s, fid(t, s, model.F(1, 4)))
			compareGroup(t, s, fid(t, s, model.F(6, 3)))
			comparePipe(t, s, 0, 1)
		}},
		{"candidate opens the reverse of a frozen direction", func(t *testing.T, s *state) {
			// (6,3) over [C,A,B] leaves C→A when pipe A–B empties, and the
			// intermediate C opens A→C for (0,3) and (1,4). With 6 next to 3
			// and (0,3) over [A,C,B], processor 3's departure leaves A→C,
			// C→B and B→A; relocating it to C opens B→C for (6,3) and C→A
			// for (3,0), the reverses of two of them.
			s.setRoute(fid(t, s, model.F(6, 3)), []int{2, 0, 1})
			comparePipe(t, s, 0, 1)
			s.reattach(6, 1)
			s.setRoute(fid(t, s, model.F(0, 3)), []int{0, 2, 1})
			compareRelocations(t, s, 3)
			compareGroup(t, s, fid(t, s, model.F(0, 3)))
		}},
		{"relocation target on a leaving route", func(t *testing.T, s *state) {
			// (1,4) over [A,C,B]: relocating either endpoint to C lands it
			// on a switch the departure takes a hop into and out of.
			s.setRoute(fid(t, s, model.F(1, 4)), []int{0, 2, 1})
			compareRelocations(t, s, 1)
			compareRelocations(t, s, 4)
			compareRelocations(t, s, 6)
		}},
		{"backbone proposal on a violating state", func(t *testing.T, s *state) {
			// Under a degree budget of 3, A and B have no link to spend and C
			// two: the backbone sends A–B traffic through C, over one-hop and
			// two-hop paths alike, and drops the direct A–B pipe.
			s.setBudgets(3, s.opt.MaxProcsPerSwitch)
			if !s.anyViolation() {
				t.Fatal("the state meets a degree budget of 3")
			}
			compareBackbone(t, s)
			s.setRoute(fid(t, s, model.F(1, 4)), []int{0, 2, 1})
			compareBackbone(t, s)
		}},
		{"processor counts at the degree boundary", func(t *testing.T, s *state) {
			// Every budget from below to above each switch's degree and
			// processor count, so a departure and an arrival each cross
			// (or just meet) a boundary at some setting.
			for deg := 1; deg <= 7; deg++ {
				for procs := 1; procs <= 4; procs++ {
					s.setBudgets(deg, procs)
					for p := range s.procs {
						compareRelocations(t, s, p)
					}
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := build(t)
			defer s.release()
			c.run(t, s)
			checkStateInvariants(t, s)
		})
	}
}

// TestExactPricingCeiling holds FFT/16, the median 16-processor NAS cell, to
// a ceiling on the candidates priced exactly (exactPricing) per synthesis at
// the default options, seeds 1–4. Every other candidate is returned on its
// floor. The floor without its penalty term, with rerouteAnneal pricing
// exactly, let 34,936 through; with both, 6,561. The ceiling is about 1.5×
// that: a floor or a bound that stops pruning fails here, not only in a
// benchmark.
func TestExactPricingCeiling(t *testing.T) {
	const ceiling = 10000
	fft, err := nas.Generate("FFT", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var priced atomic.Int64
	exactPricing = func(*state, int) { priced.Add(1) }
	defer func() { exactPricing = nil }()
	const seeds = 4
	for seed := int64(1); seed <= seeds; seed++ {
		if _, err := Synthesize(fft, Options{Seed: seed, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	per := priced.Load() / seeds
	if per > ceiling {
		t.Fatalf("FFT/16: %d exact pricings per synthesis, ceiling %d", per, ceiling)
	}
	t.Logf("FFT/16: %d exact pricings per synthesis (ceiling %d)", per, ceiling)
}
