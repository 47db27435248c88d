package synth

import (
	"fmt"
	"math/rand"
	"slices"
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
// frozen. Callers finish with checkStateInvariants, which holds the tables to
// a recomputation and the evaluator's scratch, released, to all-zero.

// compareProbe prices one candidate with probe, then with the oracle's try
// function and its undo.
func compareProbe(t *testing.T, s *state, what string, probe func() int, try func() (int, func())) {
	t.Helper()
	before := snapshotFull(s)
	got := probe()
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
}

func compareMove(t *testing.T, s *state, p, to int) {
	t.Helper()
	compareProbe(t, s, fmt.Sprintf("probeMove(%d,%d)", p, to),
		func() int { return s.probeMove(p, to) }, func() (int, func()) { return s.tryMove(p, to) })
}

func compareSwap(t *testing.T, s *state, p, q int) {
	t.Helper()
	compareProbe(t, s, fmt.Sprintf("probeSwap(%d,%d)", p, q),
		func() int { return s.probeSwap(p, q) }, func() (int, func()) { return s.trySwap(p, q) })
}

// compareRelocations freezes p's departure once and prices its relocation to
// every other switch on it, as globalRefine does.
func compareRelocations(t *testing.T, s *state, p int) {
	t.Helper()
	s.wiDepart(p)
	for to := range s.swProcs {
		if to != s.home[p] {
			compareProbe(t, s, fmt.Sprintf("wiArrive(%d,%d)", p, to),
				func() int { return s.wiArrive(p, to) }, func() (int, func()) { return s.tryMove(p, to) })
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
	check := func(what string, cand []int, price func() int) {
		t.Helper()
		before := snapshotFull(s)
		got := price()
		if !equalSnapshots(before, snapshotFull(s)) {
			t.Fatalf("%s(%v,%v) changed placement or routes", what, g, cand)
		}
		if want := s.groupRouteDeltaRef(g, cand); got != want {
			t.Fatalf("%s(%v,%v) = %d from routes %v %v, the oracle's %d", what, g, cand, got, s.routes[fi], s.routes[max(g[1], 0)], want)
		}
	}
	direct := []int{a, b}
	check("groupRouteDelta", direct, func() int { return s.groupRouteDelta(g, direct) })
	s.wiGroupDepart(g)
	for m := -1; m < s.nsw(); m++ {
		cand := direct
		if m >= 0 {
			if m == a || m == b {
				continue
			}
			cand = []int{a, m, b}
		}
		check("wiGroupRoute", cand, func() int { return s.wiGroupRoute(g, cand) })
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
		got := s.wiPipeVia(m)
		if !equalSnapshots(before, snapshotFull(s)) {
			t.Fatalf("wiPipeVia(%v,%d,%d,%d) changed placement or routes", ids, a, b, m)
		}
		if want := s.pipeEliminationDeltaRef(ids, a, b, m); got != want {
			t.Fatalf("wiPipeVia(%v,%d,%d,%d) = %d, the oracle's %d", ids, a, b, m, got, want)
		}
	}
	s.wiRelease()
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

// TestWhatIfMatchesOracle is the lockstep for every kind of what-if delta —
// one-shot moves, swaps and group reroutes, and the relocation, Best_Route and
// pipe-elimination families, each frozen once — on random and on refined
// states of three kernels: BT/16 (two bitset words), the FFT/16 NoI level
// (3 cliques, 48 flows, one word) and the jittered CG/16 trace (29 cliques,
// flows in several cliques at once).
func TestWhatIfMatchesOracle(t *testing.T) {
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
			candidates := func(n int) {
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
				checkStateInvariants(t, s)
			}
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
				candidates(8)
			}
			s.partition()
			candidates(64)
			s.release()
		}
	}
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
		{"route crossing one direction twice", func(t *testing.T, s *state) {
			fi := fid(t, s, model.F(0, 3))
			s.setRoute(fi, []int{0, 2, 0, 2, 1}) // A→C twice
			compareGroup(t, s, fi)
			compareMove(t, s, 0, 2)
			compareRelocations(t, s, 0)
			compareSwap(t, s, 0, 6)
			comparePipe(t, s, 0, 2)
		}},
		{"self-loop hop", func(t *testing.T, s *state) {
			fi := fid(t, s, model.F(1, 4))
			s.setRoute(fi, []int{0, 0, 1}) // leaves over (A,A)
			compareGroup(t, s, fi)
			compareMove(t, s, 1, 2)
			compareRelocations(t, s, 1)
		}},
		{"direct self-loop join in pipe elimination", func(t *testing.T, s *state) {
			// A flow whose endpoints share a switch but whose route leaves
			// it: emptying the pipe it crosses routes it onto [B,B], a join
			// of the frozen base (ha == hb) under every intermediate.
			s.reattach(6, 1)
			fj := fid(t, s, model.F(5, 6))
			s.setRoute(fj, []int{1, 2, 1})
			comparePipe(t, s, 1, 2)
			ids := slices.Clone(s.pipeFlowIDs(1, 2))
			s.wiPipeDepart(ids, 1, 2)
			d := s.wiPipeVia(-1)
			s.wiRelease()
			if d >= 0 {
				t.Fatal("emptying the pipe a same-switch flow detours over does not pay")
			}
			s.emptyPipe(ids, 1, 2, -1)
			if r := s.routes[fj]; len(r) != 2 || r[0] != 1 || r[1] != 1 {
				t.Fatalf("the detouring flow took %v, want [1 1]", r)
			}
			compareGroup(t, s, fj)
			compareMove(t, s, 5, 0) // takes fj off (B,B)
			compareRelocations(t, s, 5)
		}},
		{"empty departure", func(t *testing.T, s *state) {
			// With 4 next to 1, processor 1's one flow is local: its
			// departure states no direction, and the frozen base is the
			// processor leaving A alone — which, with A one processor over
			// its budget, is a change of excess every target must carry.
			s.reattach(4, 0)
			s.opt.MaxProcsPerSwitch = 3
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
		{"processor counts at the degree boundary", func(t *testing.T, s *state) {
			// Every budget from below to above each switch's degree and
			// processor count, so a departure and an arrival each cross
			// (or just meet) a boundary at some setting.
			for deg := 1; deg <= 7; deg++ {
				for procs := 1; procs <= 4; procs++ {
					s.opt.MaxDegree, s.opt.MaxProcsPerSwitch = deg, procs
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
