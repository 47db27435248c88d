package routing

import (
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

func allPairs(procs int) []model.Flow {
	var fs []model.Flow
	for s := 0; s < procs; s++ {
		for d := 0; d < procs; d++ {
			if s != d {
				fs = append(fs, model.F(s, d))
			}
		}
	}
	return fs
}

func TestDORMeshRoutes(t *testing.T) {
	net, g := topology.Mesh(4, 4)
	tab, err := DORMesh(net, g, allPairs(16))
	if err != nil {
		t.Fatal(err)
	}
	// Route 0 -> 15: X first (0,0)->(0,3) then Y to (3,3): 7 hops total? 3+3=6.
	r := tab.Routes[model.F(0, 15)]
	if r.Hops() != 6 {
		t.Fatalf("0->15 hops = %d, want 6", r.Hops())
	}
	// X-first: second switch must be (0,1) = 1.
	if r.Switches[1] != 1 {
		t.Fatalf("DOR not X-first: %v", r.Switches)
	}
	// Minimality: every route's hops == manhattan distance.
	for f, r := range tab.Routes {
		r1, c1 := g.Coord(net.Home[f.Src])
		r2, c2 := g.Coord(net.Home[f.Dst])
		want := abs(r1-r2) + abs(c1-c2)
		if r.Hops() != want {
			t.Fatalf("flow %v: hops %d, want %d", f, r.Hops(), want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestShortestPathIrregular(t *testing.T) {
	// Triangle with a pendant: 0-1, 1-2, 0-2, 2-3.
	net := topology.New("irr", 4)
	s := make([]topology.SwitchID, 4)
	for i := range s {
		s[i] = net.AddSwitch()
		net.AttachProc(i, s[i])
	}
	net.SetPipe(s[0], s[1], 1)
	net.SetPipe(s[1], s[2], 1)
	net.SetPipe(s[0], s[2], 2)
	net.SetPipe(s[2], s[3], 1)
	tab, err := ShortestPath(net, allPairs(4))
	if err != nil {
		t.Fatal(err)
	}
	if r := tab.Routes[model.F(0, 3)]; r.Hops() != 2 {
		t.Fatalf("0->3 hops = %d, want 2", r.Hops())
	}
	if r := tab.Routes[model.F(0, 2)]; r.Hops() != 1 {
		t.Fatalf("0->2 hops = %d, want 1 (direct pipe)", r.Hops())
	}
}

func TestShortestPathSameSwitch(t *testing.T) {
	net := topology.Crossbar(4)
	tab, err := ShortestPath(net, allPairs(4))
	if err != nil {
		t.Fatal(err)
	}
	for f, r := range tab.Routes {
		if r.Hops() != 0 {
			t.Fatalf("flow %v on crossbar has %d hops", f, r.Hops())
		}
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	net := topology.New("disc", 2)
	a, b := net.AddSwitch(), net.AddSwitch()
	net.AttachProc(0, a)
	net.AttachProc(1, b)
	if _, err := ShortestPath(net, []model.Flow{model.F(0, 1)}); err == nil {
		t.Fatal("disconnected network routed")
	}
}

func TestCrossbarTable(t *testing.T) {
	net := topology.Crossbar(8)
	tab, err := CrossbarTable(net, allPairs(8))
	if err != nil {
		t.Fatal(err)
	}
	// Crossbar conflict set: flows conflict only at shared injection or
	// ejection ports (same src or same dst).
	ix := model.NewFlowIndex(tab.SortedFlows())
	r := tab.ConflictMatrix(ix)
	for i := 0; i < ix.Len(); i++ {
		r.Row(i).ForEach(func(j int) {
			if a, b := ix.Flow(i), ix.Flow(j); a.Src != b.Src && a.Dst != b.Dst {
				t.Fatalf("crossbar conflict between independent flows %v and %v", a, b)
			}
		})
	}
	mesh, _ := topology.Mesh(2, 4)
	if _, err := CrossbarTable(mesh, nil); err == nil {
		t.Fatal("CrossbarTable accepted a mesh")
	}
}

// conflicts computes the table's R over its own flows and returns the pair
// test.
func conflicts(tab *Table) func(a, b model.Flow) bool {
	ix := model.NewFlowIndex(tab.SortedFlows())
	r := tab.ConflictMatrix(ix)
	return func(a, b model.Flow) bool {
		i, _ := ix.ID(a)
		j, _ := ix.ID(b)
		return r.Has(i, j)
	}
}

func TestConflictSetSharedLink(t *testing.T) {
	// Line 0-1-2: flows (0,2) and (1,2)? both use link s1->s2.
	net := topology.New("line", 3)
	s := make([]topology.SwitchID, 3)
	for i := range s {
		s[i] = net.AddSwitch()
		net.AttachProc(i, s[i])
	}
	net.SetPipe(s[0], s[1], 1)
	net.SetPipe(s[1], s[2], 1)
	tab, err := ShortestPath(net, []model.Flow{model.F(0, 2), model.F(1, 2), model.F(2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	has := conflicts(tab)
	if !has(model.F(0, 2), model.F(1, 2)) {
		t.Error("flows sharing s1->s2 link not in R")
	}
	// Opposite directions of a full-duplex link do not conflict.
	if has(model.F(0, 2), model.F(2, 0)) {
		t.Error("opposite-direction flows conflict")
	}
}

func TestConflictSetLinkIndexSeparation(t *testing.T) {
	// Two switches joined by a width-2 pipe; two same-direction flows on
	// different links must not conflict, on the same link must.
	net := topology.New("wide", 4)
	a, b := net.AddSwitch(), net.AddSwitch()
	net.AttachProc(0, a)
	net.AttachProc(1, a)
	net.AttachProc(2, b)
	net.AttachProc(3, b)
	net.SetPipe(a, b, 2)
	tab := NewTable(net)
	tab.Routes[model.F(0, 2)] = Route{Switches: []topology.SwitchID{a, b}, Links: []int{0}}
	tab.Routes[model.F(1, 3)] = Route{Switches: []topology.SwitchID{a, b}, Links: []int{1}}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if conflicts(tab)(model.F(0, 2), model.F(1, 3)) {
		t.Error("flows on different links of one pipe conflict")
	}
	tab.Routes[model.F(1, 3)] = Route{Switches: []topology.SwitchID{a, b}, Links: []int{0}}
	if !conflicts(tab)(model.F(0, 2), model.F(1, 3)) {
		t.Error("flows on the same link do not conflict")
	}
}

func TestConflictSetInjectionPort(t *testing.T) {
	net := topology.Crossbar(3)
	tab, _ := CrossbarTable(net, []model.Flow{model.F(0, 1), model.F(0, 2), model.F(1, 0), model.F(2, 0)})
	has := conflicts(tab)
	if !has(model.F(0, 1), model.F(0, 2)) {
		t.Error("same-source flows must conflict at the injection port")
	}
	if !has(model.F(1, 0), model.F(2, 0)) {
		t.Error("same-destination flows must conflict at the ejection port")
	}
	if has(model.F(0, 1), model.F(1, 0)) {
		t.Error("inject and eject of one processor are separate full-duplex directions")
	}
}

func TestValidateRejectsBadRoutes(t *testing.T) {
	net, g := topology.Mesh(2, 2)
	cases := []struct {
		name  string
		route Route
		flow  model.Flow
	}{
		{"empty", Route{}, model.F(0, 3)},
		{"wrong start", Route{Switches: []topology.SwitchID{1, 3}, Links: []int{0}}, model.F(0, 3)},
		{"wrong end", Route{Switches: []topology.SwitchID{0, 1}, Links: []int{0}}, model.F(0, 3)},
		{"no pipe", Route{Switches: []topology.SwitchID{0, 3}, Links: []int{0}}, model.F(0, 3)},
		{"bad link index", Route{Switches: []topology.SwitchID{0, 1, 3}, Links: []int{0, 5}}, model.F(0, 3)},
		{"links arity", Route{Switches: []topology.SwitchID{0, 1, 3}, Links: []int{0}}, model.F(0, 3)},
		{"revisit", Route{Switches: []topology.SwitchID{0, 1, 0, 2, 3}, Links: []int{0, 0, 0, 0}}, model.F(0, 3)},
	}
	_ = g
	for _, c := range cases {
		tab := NewTable(net)
		tab.Routes[c.flow] = c.route
		if err := tab.Validate(); err == nil {
			t.Errorf("%s: invalid route accepted", c.name)
		}
	}
}

func TestTheoremOneMeshContentionFreeCase(t *testing.T) {
	// Two parallel horizontal flows on different rows never share a link:
	// C x R intersection must be empty even though both pairs overlap in
	// time.
	net, g := topology.Mesh(2, 2)
	flows := []model.Flow{model.F(0, 1), model.F(2, 3)}
	tab, err := DORMesh(net, g, flows)
	if err != nil {
		t.Fatal(err)
	}
	ix := model.NewFlowIndex(flows)
	c := model.NewConflictMatrix(ix)
	c.Add(0, 1)
	free, _ := model.ContentionFreeBits(c, tab.ConflictMatrix(ix))
	if !free {
		t.Fatal("parallel disjoint flows flagged as contention")
	}
}

func TestPathChannelsUnassignedDefaultsToZero(t *testing.T) {
	r := Route{Switches: []topology.SwitchID{0, 1}, Links: []int{UnassignedLink}}
	chs := PathChannels(model.F(0, 1), r)
	if len(chs) != 3 {
		t.Fatalf("channels = %v", chs)
	}
	if chs[1].Kind != Link || chs[1].Index != 0 {
		t.Fatalf("unassigned link not defaulted: %+v", chs[1])
	}
}

func TestSortedFlowsDeterministic(t *testing.T) {
	net := topology.Crossbar(4)
	tab, _ := CrossbarTable(net, allPairs(4))
	a := tab.SortedFlows()
	b := tab.SortedFlows()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SortedFlows not deterministic")
		}
		if i > 0 && !a[i-1].Less(a[i]) {
			t.Fatal("SortedFlows not sorted")
		}
	}
}
