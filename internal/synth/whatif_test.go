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
// moveref_test.go, candidate by candidate. Each compare* helper prices one
// candidate both ways on the same state, requires equal deltas, and requires
// the what-if to have left placement and routes alone and the processor lists
// as the oracle's apply/undo round trip leaves them; callers finish with
// checkStateInvariants, which holds the tables to a recomputation and the
// evaluator's scratch to all-zero.

// compareProbe prices one move or swap with probe, then with the oracle's
// try function and its undo.
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

// compareGroup prices rerouting flow fi — with its reverse when that mirrors
// it, as bestRoute groups them — through via (directly when via is an
// endpoint's home).
func compareGroup(t *testing.T, s *state, fi, via int) {
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
	cand := []int{a, via, b}
	if via == a || via == b {
		cand = []int{a, b}
	}
	before := snapshotFull(s)
	got := s.groupRouteDelta(g, cand)
	if !equalSnapshots(before, snapshotFull(s)) {
		t.Fatalf("groupRouteDelta(%v,%v) changed placement or routes", g, cand)
	}
	if want := s.groupRouteDeltaRef(g, cand); got != want {
		t.Fatalf("groupRouteDelta(%v,%v) = %d from routes %v %v, the oracle's %d", g, cand, got, s.routes[fi], s.routes[max(g[1], 0)], want)
	}
}

// comparePipe prices emptying pipe (a,b) through m (-1: direct paths only).
func comparePipe(t *testing.T, s *state, a, b, m int) {
	t.Helper()
	if a == b || m == a || m == b {
		return
	}
	ids := slices.Clone(s.pipeFlowIDs(a, b))
	before := snapshotFull(s)
	got := s.pipeEliminationDelta(ids, a, b, m)
	if !equalSnapshots(before, snapshotFull(s)) {
		t.Fatalf("pipeEliminationDelta(%v,%d,%d,%d) changed placement or routes", ids, a, b, m)
	}
	if want := s.pipeEliminationDeltaRef(ids, a, b, m); got != want {
		t.Fatalf("pipeEliminationDelta(%v,%d,%d,%d) = %d, the oracle's %d", ids, a, b, m, got, want)
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

// TestWhatIfMatchesOracle is the lockstep for the two evaluations
// TestMoveEngineRandomEquivalence does not reach — groupRouteDelta and
// pipeEliminationDelta — next to moves and swaps, on random and on refined
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
					a, b, m := rng.Intn(s.nsw()), rng.Intn(s.nsw()), rng.Intn(s.nsw()+1)-1
					if a != s.home[p] {
						compareMove(t, s, p, a)
					}
					if s.home[p] != s.home[q] {
						compareSwap(t, s, p, q)
					}
					compareGroup(t, s, rng.Intn(len(s.flows)), a)
					comparePipe(t, s, a, b, m)
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
			compareGroup(t, s, fid(t, s, model.F(0, 3)), 2)
		}},
		{"swap of two processors sharing a flow", func(t *testing.T, s *state) {
			compareSwap(t, s, 0, 3) // (0,3) and (3,0) touch both
			compareSwap(t, s, 6, 5) // (5,6)
		}},
		{"route crossing one direction twice", func(t *testing.T, s *state) {
			fi := fid(t, s, model.F(0, 3))
			s.setRoute(fi, []int{0, 2, 0, 2, 1}) // A→C twice
			compareGroup(t, s, fi, 0)
			compareGroup(t, s, fi, 2)
			compareMove(t, s, 0, 2)
			compareSwap(t, s, 0, 6)
			comparePipe(t, s, 0, 2, 1)
			comparePipe(t, s, 0, 2, -1)
		}},
		{"self-loop hop", func(t *testing.T, s *state) {
			fi := fid(t, s, model.F(1, 4))
			s.setRoute(fi, []int{0, 0, 1}) // leaves over (A,A)
			compareGroup(t, s, fi, 2)
			compareMove(t, s, 1, 2)
			// A flow whose endpoints share a switch but whose route leaves
			// it: eliminating the pipe it crosses routes it onto [B,B].
			s.reattach(6, 1)
			fj := fid(t, s, model.F(5, 6))
			s.setRoute(fj, []int{1, 2, 1})
			comparePipe(t, s, 1, 2, -1)
			comparePipe(t, s, 1, 2, 0)
			if !s.tryPipeElimination(slices.Clone(s.pipeFlowIDs(1, 2)), 1, 2, -1) {
				t.Fatal("emptying the pipe a same-switch flow detours over does not pay")
			}
			compareGroup(t, s, fi, 2)
			compareMove(t, s, 5, 0) // takes fj off (B,B)
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
