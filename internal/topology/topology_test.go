package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMeshStructure(t *testing.T) {
	n, g := Mesh(4, 4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumSwitches() != 16 || n.Procs != 16 {
		t.Fatalf("mesh 4x4: %d switches, %d procs", n.NumSwitches(), n.Procs)
	}
	// 2*4*3 = 24 unit pipes.
	if n.TotalLinks() != 24 {
		t.Fatalf("mesh 4x4 links = %d, want 24", n.TotalLinks())
	}
	// Interior switch degree: 4 neighbors + 1 proc = 5 (the paper's
	// 5-port switch).
	if d := n.Degree(g.At(1, 1)); d != 5 {
		t.Errorf("interior degree = %d, want 5", d)
	}
	if d := n.Degree(g.At(0, 0)); d != 3 {
		t.Errorf("corner degree = %d, want 3", d)
	}
	if n.MaxDegree() != 5 {
		t.Errorf("mesh max degree = %d, want 5", n.MaxDegree())
	}
}

func TestMeshRectangular(t *testing.T) {
	n, _ := Mesh(2, 4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Links: horizontal 2*3=6, vertical 4*1=4.
	if n.TotalLinks() != 10 {
		t.Fatalf("mesh 2x4 links = %d, want 10", n.TotalLinks())
	}
}

func TestTorusStructure(t *testing.T) {
	n, _ := Torus(4, 4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Torus 4x4: 2*16 = 32 unit pipes (paper: torus needs double the
	// mesh's 24? no — 4x4 torus has 32 links, exactly 2 per switch per
	// dimension).
	if n.TotalLinks() != 32 {
		t.Fatalf("torus 4x4 links = %d, want 32", n.TotalLinks())
	}
	for _, sw := range n.Switches {
		if d := n.Degree(sw.ID); d != 5 {
			t.Errorf("torus switch %d degree = %d, want 5", sw.ID, d)
		}
	}
}

func TestTorusDegenerateRings(t *testing.T) {
	n, _ := Torus(2, 4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rows of length 4 wrap (adds 2), columns of length 2 do not.
	if n.TotalLinks() != 12 {
		t.Fatalf("torus 2x4 links = %d, want 12", n.TotalLinks())
	}
}

func TestCrossbar(t *testing.T) {
	n := Crossbar(9)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumSwitches() != 1 || n.TotalLinks() != 0 {
		t.Fatalf("crossbar: %d switches, %d links", n.NumSwitches(), n.TotalLinks())
	}
	if n.Degree(0) != 9 {
		t.Fatalf("crossbar degree = %d, want 9", n.Degree(0))
	}
}

func TestGridDims(t *testing.T) {
	cases := map[int][2]int{8: {2, 4}, 9: {3, 3}, 16: {4, 4}, 12: {3, 4}, 7: {1, 7}}
	for n, want := range cases {
		r, c := GridDims(n)
		if r != want[0] || c != want[1] {
			t.Errorf("GridDims(%d) = %dx%d, want %dx%d", n, r, c, want[0], want[1])
		}
	}
}

func TestGridCoordRoundTrip(t *testing.T) {
	g := Grid{Rows: 3, Cols: 5}
	for r := 0; r < 3; r++ {
		for c := 0; c < 5; c++ {
			rr, cc := g.Coord(g.At(r, c))
			if rr != r || cc != c {
				t.Fatalf("coord round trip failed at (%d,%d)", r, c)
			}
		}
	}
}

func TestSetPipeLifecycle(t *testing.T) {
	n := New("t", 2)
	a, b, c := n.AddSwitch(), n.AddSwitch(), n.AddSwitch()
	n.AttachProc(0, a)
	n.AttachProc(1, b)
	n.SetPipe(a, b, 2)
	n.SetPipe(c, a, 1) // reversed endpoints canonicalize
	if p, ok := n.PipeBetween(b, a); !ok || p.Width != 2 {
		t.Fatalf("PipeBetween(b,a) = %+v, %v", p, ok)
	}
	if p, ok := n.PipeBetween(a, c); !ok || p.Width != 1 {
		t.Fatalf("canonical pipe lookup failed: %+v %v", p, ok)
	}
	n.SetPipe(a, b, 5)
	if p, _ := n.PipeBetween(a, b); p.Width != 5 {
		t.Fatalf("resize failed: %+v", p)
	}
	if len(n.Pipes) != 2 {
		t.Fatalf("pipes = %v", n.Pipes)
	}
	// A pipe is never removed: a width below 1 is a caller bug.
	for _, w := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetPipe(a, b, %d) did not panic", w)
				}
			}()
			n.SetPipe(a, b, w)
		}()
	}
	if p, ok := n.PipeBetween(a, b); !ok || p.Width != 5 {
		t.Fatalf("a rejected width changed the pipe: %+v %v", p, ok)
	}
}

func TestAttachProcMoves(t *testing.T) {
	n := New("t", 1)
	a, b := n.AddSwitch(), n.AddSwitch()
	n.AttachProc(0, a)
	n.AttachProc(0, b)
	if len(n.Switches[a].Procs) != 0 || len(n.Switches[b].Procs) != 1 {
		t.Fatalf("move failed: %v / %v", n.Switches[a].Procs, n.Switches[b].Procs)
	}
	if n.Home[0] != b {
		t.Fatalf("home = %d", n.Home[0])
	}
}

func TestValidateCatchesDisconnection(t *testing.T) {
	n := New("t", 2)
	a, b := n.AddSwitch(), n.AddSwitch()
	n.AttachProc(0, a)
	n.AttachProc(1, b)
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("disconnected network accepted: %v", err)
	}
	n.SetPipe(a, b, 1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesUnattached(t *testing.T) {
	n := New("t", 2)
	a := n.AddSwitch()
	n.AttachProc(0, a)
	if err := n.Validate(); err == nil {
		t.Fatal("unattached processor accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	n := New("t", 1)
	s := make([]SwitchID, 4)
	for i := range s {
		s[i] = n.AddSwitch()
	}
	n.AttachProc(0, s[0])
	n.SetPipe(s[0], s[3], 1)
	n.SetPipe(s[0], s[1], 1)
	n.SetPipe(s[0], s[2], 1)
	nb := n.Neighbors(s[0])
	if len(nb) != 3 || nb[0] != s[1] || nb[1] != s[2] || nb[2] != s[3] {
		t.Fatalf("Neighbors = %v", nb)
	}
}

// Property: for any grid dims in range, mesh and torus validate and the
// torus has at least as many links as the mesh.
func TestMeshTorusProperty(t *testing.T) {
	f := func(r8, c8 uint8) bool {
		r := int(r8%5) + 1
		c := int(c8%5) + 1
		m, _ := Mesh(r, c)
		tr, _ := Torus(r, c)
		if m.Validate() != nil || tr.Validate() != nil {
			return false
		}
		return tr.TotalLinks() >= m.TotalLinks()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
