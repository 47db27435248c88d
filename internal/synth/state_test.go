package synth

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// testState builds a state from a small phased pattern.
func testState(t *testing.T, procs int, phases []trace.PhaseSpec, seed int64) *state {
	t.Helper()
	p := trace.BuildPhased("t", procs, phases)
	cliques := model.MaxCliqueSet(p)
	return newState(newKernel(p, cliques), Options{Seed: seed}.Normalized(), seed, &Stats{})
}

// fid resolves a flow to its dense ID, failing the test if it is unknown.
func fid(t *testing.T, s *state, f model.Flow) int {
	t.Helper()
	id, ok := s.idx.ID(f)
	if !ok {
		t.Fatalf("flow %v not interned", f)
	}
	return id
}

// pipeHasFlow reports whether flow ID fi rides the (from,to) pipe direction.
func pipeHasFlow(s *state, from, to, fi int) bool {
	set := s.pipeAt(from, to)
	return set != nil && set.Has(fi)
}

func pairPhases() []trace.PhaseSpec {
	return []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1), model.F(2, 3), model.F(4, 5)}, Bytes: 64},
		{Flows: []model.Flow{model.F(1, 2), model.F(3, 4), model.F(5, 0)}, Bytes: 64},
	}
}

func TestNewStateInitial(t *testing.T) {
	s := testState(t, 6, pairPhases(), 1)
	if len(s.swProcs) != 1 || len(s.swProcs[0]) != 6 {
		t.Fatalf("initial partition: %v", s.swProcs)
	}
	for fi, f := range s.flows {
		r := s.routes[fi]
		if len(r) != 1 || r[0] != 0 {
			t.Fatalf("flow %v initial route %v", f, r)
		}
	}
	if s.totalHops != 0 {
		t.Fatalf("initial hops %d", s.totalHops)
	}
	for _, w := range s.pairW {
		if w != 0 {
			t.Fatalf("megaswitch should need no links, got widths %v", s.pairW)
		}
	}
}

func TestSetRouteMaintainsPipes(t *testing.T) {
	s := testState(t, 6, pairPhases(), 1)
	s.swProcs = [][]int{{0, 1, 2}, {3, 4, 5}}
	for p := 0; p < 6; p++ {
		s.home[p] = p / 3
	}
	fi := fid(t, s, model.F(2, 3))
	s.setRoute(fi, []int{0, 1})
	if !pipeHasFlow(s, 0, 1, fi) {
		t.Fatal("pipe set not updated")
	}
	if s.totalHops != 1 {
		t.Fatalf("hops = %d", s.totalHops)
	}
	s.setRoute(fi, []int{0})
	if pipeHasFlow(s, 0, 1, fi) {
		t.Fatal("old pipe entry not removed")
	}
	if s.totalHops != 0 {
		t.Fatalf("hops after reroute = %d", s.totalHops)
	}
}

func TestFastColorDirCountsCliqueOverlap(t *testing.T) {
	s := testState(t, 6, pairPhases(), 1)
	s.swProcs = [][]int{{0, 2, 4}, {1, 3, 5}}
	for _, p := range []int{0, 2, 4} {
		s.home[p] = 0
	}
	for _, p := range []int{1, 3, 5} {
		s.home[p] = 1
	}
	// Phase 1 flows (0,1),(2,3),(4,5) all cross 0->1: same period =>
	// width 3. Phase 2 flows (1,2),(3,4),(5,0) all cross 1->0.
	for fi := range s.flows {
		s.setRoute(fi, s.directRoute(fi))
	}
	if got, _ := s.dirStats(0, 1); got != 3 {
		t.Fatalf("dirStats(0,1) width = %d, want 3", got)
	}
	if got, _ := s.dirStats(1, 0); got != 3 {
		t.Fatalf("dirStats(1,0) width = %d, want 3", got)
	}
	if got := s.pairW[s.widthIdx(0, 1)]; got != 3 {
		t.Fatalf("pairW = %d, want 3", got)
	}
	// Degree: 3 procs + 3 links.
	if got := s.estDegree(0); got != 6 {
		t.Fatalf("estDegree = %d, want 6", got)
	}
}

func TestSplitPreservesFlowAccounting(t *testing.T) {
	s := testState(t, 6, pairPhases(), 3)
	j := s.split(0)
	if j != 1 || len(s.swProcs) != 2 {
		t.Fatalf("split: %v", s.swProcs)
	}
	if len(s.swProcs[0])+len(s.swProcs[1]) != 6 {
		t.Fatalf("processors lost: %v", s.swProcs)
	}
	checkStateInvariants(t, s)
}

func TestReattachReroutesTouchedFlows(t *testing.T) {
	s := testState(t, 6, pairPhases(), 3)
	s.split(0)
	p := s.swProcs[0][0]
	target := 1
	s.reattach(p, target)
	if s.home[p] != target {
		t.Fatalf("home not updated")
	}
	for _, fi := range s.procFlows[p] {
		r := s.routes[fi]
		f := s.flows[fi]
		if r[0] != s.home[f.Src] || r[len(r)-1] != s.home[f.Dst] {
			t.Fatalf("flow %v route %v inconsistent with homes", f, r)
		}
	}
	checkStateInvariants(t, s)
}

func TestTryMoveUndoRestoresExactly(t *testing.T) {
	s := testState(t, 6, pairPhases(), 5)
	s.split(0)
	before := snapshotFull(s)
	p := s.swProcs[0][0]
	_, undo := s.tryMove(p, 1)
	undo()
	after := snapshotFull(s)
	if !equalSnapshots(before, after) {
		t.Fatalf("undo did not restore state:\nbefore=%v\nafter=%v", before, after)
	}
}

func TestTrySwapUndoRestoresExactly(t *testing.T) {
	s := testState(t, 6, pairPhases(), 5)
	s.split(0)
	if len(s.swProcs[0]) == 0 || len(s.swProcs[1]) == 0 {
		t.Skip("degenerate split")
	}
	p, q := s.swProcs[0][0], s.swProcs[1][0]
	before := snapshotFull(s)
	_, undo := s.trySwap(p, q)
	undo()
	after := snapshotFull(s)
	if !equalSnapshots(before, after) {
		t.Fatalf("swap undo did not restore state")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := testState(t, 6, pairPhases(), 7)
	s.split(0)
	var snap stateSnapshot
	s.snapshotInto(&snap)
	before := snapshotFull(s)
	// Mutate heavily.
	s.reattach(s.swProcs[0][0], 1)
	for fi := range s.flows {
		s.setRoute(fi, s.directRoute(fi))
	}
	s.restore(snap)
	after := snapshotFull(s)
	if !equalSnapshots(before, after) {
		t.Fatalf("restore did not reproduce snapshot")
	}
}

// groupRouteDelta must evaluate without mutating.
func TestRouteDeltaIsNeutralOnRestore(t *testing.T) {
	s := testState(t, 6, pairPhases(), 9)
	s.split(0)
	before := snapshotFull(s)
	for fi, f := range s.flows {
		a, b := s.home[f.Src], s.home[f.Dst]
		if a == b {
			continue
		}
		s.groupRouteDelta(group{fi, -1}, []int{a, b})
	}
	if !equalSnapshots(before, snapshotFull(s)) {
		t.Fatal("routeDelta mutated state")
	}
}

func TestBalancedAfterMove(t *testing.T) {
	s := testState(t, 6, pairPhases(), 1)
	s.swProcs = [][]int{{0, 1, 2, 3}, {4, 5}}
	for p := 0; p < 4; p++ {
		s.home[p] = 0
	}
	s.home[4], s.home[5] = 1, 1
	// 4/2 -> moving from 0 to 1 gives 3/3: fine.
	if !s.balancedAfterMove(0, 1, 0, 1) {
		t.Error("balancing move rejected")
	}
	// Moving from 1 to 0 gives 5/1: unbalanced by 4.
	if s.balancedAfterMove(4, 0, 0, 1) {
		t.Error("unbalancing move accepted")
	}
	// Emptying a half is forbidden.
	s.swProcs = [][]int{{0, 1, 2, 3, 4}, {5}}
	for p := 0; p < 5; p++ {
		s.home[p] = 0
	}
	s.home[5] = 1
	if s.balancedAfterMove(5, 0, 0, 1) {
		t.Error("move emptying a partition accepted")
	}
}

// checkStateInvariants verifies the cross-structure consistency of a state.
func checkStateInvariants(t *testing.T, s *state) {
	t.Helper()
	// Home/swProcs agreement.
	for sw, procs := range s.swProcs {
		for _, p := range procs {
			if s.home[p] != sw {
				t.Fatalf("proc %d in swProcs[%d] but home %d", p, sw, s.home[p])
			}
		}
	}
	count := 0
	for _, procs := range s.swProcs {
		count += len(procs)
	}
	if count != s.procs {
		t.Fatalf("%d processors accounted, want %d", count, s.procs)
	}
	// Routes are simple paths, match homes, and pipes match routes.
	for fi, f := range s.flows {
		r := s.routes[fi]
		if r[0] != s.home[f.Src] || r[len(r)-1] != s.home[f.Dst] {
			t.Fatalf("flow %v route %v vs homes %d->%d", f, r, s.home[f.Src], s.home[f.Dst])
		}
		for i, sw := range r {
			if slices.Contains(r[:i], sw) {
				t.Fatalf("flow %v route %v revisits switch %d", f, r, sw)
			}
		}
		for i := 1; i < len(r); i++ {
			if !pipeHasFlow(s, r[i-1], r[i], fi) {
				t.Fatalf("flow %v hop %d missing from pipe set", f, i)
			}
		}
	}
	// No stale pipe entries, and pipeUsed agrees with the set.
	for a := 0; a < s.nsw(); a++ {
		for b := 0; b < s.nsw(); b++ {
			if a == b {
				continue
			}
			set := s.pipeAt(a, b)
			if set == nil {
				continue
			}
			if got := set.Count(); (got > 0) != s.pipeUsed(a, b) {
				t.Fatalf("pipe (%d,%d): pipeUsed %v, set has %d", a, b, s.pipeUsed(a, b), got)
			}
			set.ForEach(func(fi int) {
				r := s.routes[fi]
				found := false
				for i := 1; i < len(r); i++ {
					if r[i-1] == a && r[i] == b {
						found = true
					}
				}
				if !found {
					t.Fatalf("stale pipe entry (%d,%d) for flow %v (route %v)", a, b, s.flows[fi], r)
				}
			})
		}
	}
	checkTables(t, s)
	// The what-if evaluator's scratch is all-zero between families.
	wi := &s.wi
	if len(wi.dirs) != 0 || len(wi.sws) != 0 || wi.hops != 0 || wi.nbase != 0 || wi.left != 0 || wi.base != 0 {
		t.Fatalf("what-if base not released: %d directions, %d switches, %d hops, %d frozen directions, switch %d left, delta %d", len(wi.dirs), len(wi.sws), wi.hops, wi.nbase, wi.left-1, wi.base)
	}
	if wi.quad != 0 || len(wi.cand) != 0 || len(wi.cdirs) != 0 || len(wi.csws) != 0 {
		t.Fatalf("what-if candidate not cleared: quad %d, %d joins, %d directions, %d switches", wi.quad, len(wi.cand), len(wi.cdirs), len(wi.csws))
	}
	if i := slices.Index(wi.seen, true); i >= 0 {
		t.Fatalf("what-if seen[%d] set between evaluations", i)
	}
	for name, cells := range map[string][]int32{"slot": wi.slot, "overlay": wi.ov} {
		if i := slices.IndexFunc(cells, func(n int32) bool { return n != 0 }); i >= 0 {
			t.Fatalf("what-if %s[%d] = %d between evaluations", name, i, cells[i])
		}
	}
	for name, cells := range map[string][]int64{"deg": wi.deg, "fdeg": wi.fdeg} {
		if i := slices.IndexFunc(cells, func(n int64) bool { return n != 0 }); i >= 0 {
			t.Fatalf("what-if %s[%d] = %d between evaluations", name, i, cells[i])
		}
	}
	if len(wi.slot) != len(s.dirW) || len(wi.seen) != len(s.pairW) || len(wi.deg) != len(s.sumW) || len(wi.fdeg) != len(s.sumW) {
		t.Fatalf("what-if scratch sized %d/%d/%d/%d, tables %d/%d/%d", len(wi.slot), len(wi.seen), len(wi.deg), len(wi.fdeg), len(s.dirW), len(s.pairW), len(s.sumW))
	}
}

// allSwitches lists every switch index, dead or not.
func (s *state) allSwitches() []int {
	all := make([]int, s.nsw())
	for i := range all {
		all[i] = i
	}
	return all
}

// setBudgets changes a live state's design constraints, re-tallying the
// penalty total they price. Synthesis fixes them for a state's lifetime.
func (s *state) setBudgets(degree, procs int) {
	for sw := range s.nsw() {
		s.tally(sw, -1)
	}
	s.opt.MaxDegree, s.opt.MaxProcsPerSwitch = degree, procs
	for sw := range s.nsw() {
		s.tally(sw, 1)
	}
}

// checkTables holds every maintained cost table to a from-scratch
// recomputation, over the whole stride (cells past the live switches must
// read as empty): each direction's count row against the AND-popcount of its
// flow set with each clique (all zero, or no row at all, for an empty pipe),
// dirW/dirQ against dirStatsCompute, pairW against the larger direction,
// sumW against the sum of the switch's pair widths, the objective's totals
// against penaltyOfRef, the pair-width and quad sums and a recount of hops
// and live switches, the live set's bits against the same recount (clear past
// the switch count), each processor's cross count against a recount of its
// flows routed off its switch — and portBound, for every switch as it
// stands, against the degree it must not exceed.
func checkTables(t *testing.T, s *state) {
	t.Helper()
	nc := len(s.cliques)
	links, quad := 0, 0
	for a := 0; a < s.stride; a++ {
		sum := 0
		for b := 0; b < s.stride; b++ {
			pi := a*s.stride + b
			w, q := s.dirStatsCompute(a, b)
			if gw, gq := s.dirStats(a, b); gw != w || gq != q {
				t.Fatalf("direction (%d,%d): tables say width %d quad %d, flow set says %d %d", a, b, gw, gq, w, q)
			}
			quad += q
			if at := int(s.rowAt[pi]); at != 0 {
				for c, n := range s.counts[at-1 : at-1+nc] {
					want := 0
					if s.pipes[pi] != nil {
						want = s.pipes[pi].AndCount(s.cliqueBits[c])
					}
					if int(n) != want {
						t.Fatalf("direction (%d,%d) clique %d: count %d, flow set has %d", a, b, c, n, want)
					}
				}
			} else if s.pipes[pi] != nil && s.pipes[pi].Count() != 0 {
				t.Fatalf("direction (%d,%d) holds %d flows but has no count row", a, b, s.pipes[pi].Count())
			}
			if a == b {
				continue
			}
			if wb, _ := s.dirStatsCompute(b, a); wb > w {
				w = wb
			}
			if got := int(s.pairW[s.widthIdx(a, b)]); got != w {
				t.Fatalf("pair (%d,%d): pairW %d, recomputed %d", a, b, got, w)
			}
			sum += w
			if a < b {
				links += w
			}
		}
		if int(s.sumW[a]) != sum {
			t.Fatalf("switch %d: sumW %d, recomputed %d", a, s.sumW[a], sum)
		}
	}
	hops, live := 0, 0
	cross := make([]int32, s.procs)
	for fi, r := range s.routes {
		hops += len(r) - 1
		if f := s.flows[fi]; len(r) > 1 {
			cross[f.Src]++
			cross[f.Dst]++
		}
	}
	if !slices.Equal(s.cross, cross) {
		t.Fatalf("cross counts %v, recounted %v", s.cross, cross)
	}
	sws := make([]int, s.nsw())
	for sw := range sws {
		sws[sw] = sw
		if len(s.swProcs[sw]) > 0 || s.sumW[sw] > 0 {
			live++
		}
	}
	if len(s.liveSet) < (s.stride+63)/64 {
		t.Fatalf("live set of %d words for stride %d", len(s.liveSet), s.stride)
	}
	for sw := range 64 * len(s.liveSet) {
		want := sw < s.nsw() && (len(s.swProcs[sw]) > 0 || s.sumW[sw] > 0)
		if got := s.liveSet.Has(sw); got != want {
			t.Fatalf("switch %d: live set says %v, recounted %v", sw, got, want)
		}
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"penalty", s.penalty, s.penaltyOfRef(sws)},
		{"links", s.links, links},
		{"quad", s.quad, quad},
		{"totalHops", s.totalHops, hops},
		{"live", s.live, live},
	} {
		if c.got != c.want {
			t.Fatalf("total %s %d, recomputed %d", c.name, c.got, c.want)
		}
	}
	for sw := range s.swProcs {
		if bound, deg := s.portBound(sw, sw), s.estDegreeRef(sw); bound > deg {
			t.Fatalf("switch %d: portBound %d exceeds its degree %d", sw, bound, deg)
		}
	}
	for i, n := range s.boundCnt {
		if n != 0 {
			t.Fatalf("portBound left boundCnt[%d] = %d", i, n)
		}
	}
}

type fullSnapshot struct {
	home  []int
	hops  int
	route []string
}

func snapshotFull(s *state) fullSnapshot {
	snap := fullSnapshot{
		home:  append([]int(nil), s.home...),
		hops:  s.totalHops,
		route: make([]string, len(s.routes)),
	}
	for fi, r := range s.routes {
		key := ""
		for _, sw := range r {
			key += string(rune('A' + sw))
		}
		snap.route[fi] = key
	}
	return snap
}

func equalSnapshots(a, b fullSnapshot) bool {
	if a.hops != b.hops || len(a.home) != len(b.home) {
		return false
	}
	for i := range a.home {
		if a.home[i] != b.home[i] {
			return false
		}
	}
	if len(a.route) != len(b.route) {
		return false
	}
	for fi, r := range a.route {
		if b.route[fi] != r {
			return false
		}
	}
	return true
}

// Property: after any random sequence of splits, moves, and reroutes the
// state invariants hold.
func TestStateInvariantsUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		s := testState(t, 8, []trace.PhaseSpec{
			{Flows: []model.Flow{model.F(0, 1), model.F(2, 3), model.F(4, 5), model.F(6, 7)}, Bytes: 64},
			{Flows: []model.Flow{model.F(1, 4), model.F(3, 6), model.F(5, 0), model.F(7, 2)}, Bytes: 64},
		}, int64(trial))
		for op := 0; op < 30; op++ {
			switch rng.Intn(3) {
			case 0:
				// Split a random switch with >= 2 procs.
				var eligible []int
				for sw, procs := range s.swProcs {
					if len(procs) >= 2 {
						eligible = append(eligible, sw)
					}
				}
				if len(eligible) > 0 && len(s.swProcs) < 6 {
					s.split(eligible[rng.Intn(len(eligible))])
				}
			case 1:
				p := rng.Intn(8)
				to := rng.Intn(len(s.swProcs))
				if to != s.home[p] {
					s.reattach(p, to)
				}
			case 2:
				fi := rng.Intn(len(s.flows))
				f := s.flows[fi]
				a, b := s.home[f.Src], s.home[f.Dst]
				if a == b {
					continue
				}
				m := rng.Intn(len(s.swProcs))
				if m != a && m != b {
					s.setRoute(fi, []int{a, m, b})
				} else {
					s.setRoute(fi, []int{a, b})
				}
			}
			checkStateInvariants(t, s)
		}
	}
}
