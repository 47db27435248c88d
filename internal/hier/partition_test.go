package hier

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

func cg16(t testing.TB) *model.Pattern {
	t.Helper()
	p, err := nas.CG(16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkAssignment asserts the structural invariants every assignment must
// satisfy: processors partitioned exactly, lookup tables consistent,
// gateways members of their clusters with dense NoI IDs.
func checkAssignment(t *testing.T, a *Assignment) {
	t.Helper()
	seen := make(map[int]bool)
	for c, members := range a.Clusters {
		if len(members) == 0 {
			t.Fatalf("cluster %d empty", c)
		}
		for l, p := range members {
			if seen[p] {
				t.Fatalf("processor %d in two clusters", p)
			}
			seen[p] = true
			if a.Of[p] != c || a.Local[p] != l {
				t.Fatalf("processor %d: Of=%d Local=%d, want %d/%d", p, a.Of[p], a.Local[p], c, l)
			}
			if l > 0 && members[l-1] >= p {
				t.Fatalf("cluster %d not ascending: %v", c, members)
			}
		}
	}
	if len(seen) != a.Procs {
		t.Fatalf("%d processors assigned, want %d", len(seen), a.Procs)
	}
	noi := 0
	for c, gws := range a.Gateways {
		for _, g := range gws {
			if a.Of[g] != c {
				t.Fatalf("gateway %d not a member of cluster %d", g, c)
			}
			if a.NoIID[g] != noi {
				t.Fatalf("gateway %d NoI ID %d, want %d", g, a.NoIID[g], noi)
			}
			noi++
		}
	}
	if noi != a.NoIProcs {
		t.Fatalf("NoIProcs %d, want %d", a.NoIProcs, noi)
	}
	for p := 0; p < a.Procs; p++ {
		isGW := false
		for _, g := range a.Gateways[a.Of[p]] {
			if g == p {
				isGW = true
			}
		}
		if !isGW && a.NoIID[p] != -1 {
			t.Fatalf("non-gateway %d has NoI ID %d", p, a.NoIID[p])
		}
	}
}

func TestPartitionBlocks(t *testing.T) {
	p := cg16(t)
	sp, _ := ParseSpec("blocks:4")
	a, err := Partition(p, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, a)
	if len(a.Clusters) != 4 {
		t.Fatalf("got %d clusters, want 4", len(a.Clusters))
	}
	for c, members := range a.Clusters {
		if len(members) != 4 || members[0] != c*4 {
			t.Errorf("block %d = %v, want [%d..%d]", c, members, c*4, c*4+3)
		}
	}
	// CG-16's boundary processors: everyone sends or receives a transpose
	// message except the diagonal, so three gateways per row cluster.
	for c, gws := range a.Gateways {
		if len(gws) != 3 {
			t.Errorf("cluster %d gateways = %v, want 3 boundary processors", c, gws)
		}
		for _, g := range gws {
			if g == c*4+c {
				t.Errorf("diagonal processor %d must not be a boundary gateway", g)
			}
		}
	}
}

func TestPartitionFlowDeterministicAndCovering(t *testing.T) {
	p := cg16(t)
	sp, _ := ParseSpec("flow:4")
	a1, err := Partition(p, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Partition(p, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, a1)
	if len(a1.Clusters) != 4 {
		t.Fatalf("got %d clusters, want 4", len(a1.Clusters))
	}
	for c := range a1.Clusters {
		if len(a1.Clusters[c]) != len(a2.Clusters[c]) {
			t.Fatalf("nondeterministic partition: %v vs %v", a1.Clusters, a2.Clusters)
		}
		for i := range a1.Clusters[c] {
			if a1.Clusters[c][i] != a2.Clusters[c][i] {
				t.Fatalf("nondeterministic partition: %v vs %v", a1.Clusters, a2.Clusters)
			}
		}
	}
}

func TestPartitionExplicitGateways(t *testing.T) {
	p := cg16(t)
	sp, err := ParseSpec("0-3@1;4-7@6;8-11@9;12-15@14")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Partition(p, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, a)
	want := []int{1, 6, 9, 14}
	for c, gws := range a.Gateways {
		if len(gws) != 1 || gws[0] != want[c] {
			t.Errorf("cluster %d gateways = %v, want [%d]", c, gws, want[c])
		}
	}
}

func TestPartitionMaxGateways(t *testing.T) {
	p := cg16(t)
	sp, _ := ParseSpec("blocks:4")
	a, err := Partition(p, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, a)
	for c, gws := range a.Gateways {
		if len(gws) != 1 {
			t.Errorf("cluster %d has %d gateways under cap 1", c, len(gws))
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	p := cg16(t)
	for _, in := range []string{
		"blocks:17", // more clusters than processors
		"flow:99",
		"0-3",        // does not cover [0,16)
		"0-15;16-19", // members out of range
		"0-20",
	} {
		sp, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		_, err = Partition(p, sp, 0)
		if err == nil {
			t.Errorf("Partition(%q): expected error", in)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("Partition(%q): error %T is not *SpecError: %v", in, err, err)
		}
	}
	if _, err := Partition(p, nil, 0); err == nil {
		t.Error("Partition(nil spec): expected error")
	}
	// Partition takes a spec's groups in the order ParseSpec leaves them;
	// groups out of canonical order are refused, not reordered.
	disordered := &Spec{Mode: ModeExplicit, Groups: [][]int{{8, 9, 10, 11, 12, 13, 14, 15}, {0, 1, 2, 3, 4, 5, 6, 7}}, GroupGateways: [][]int{nil, nil}}
	var se *SpecError
	if _, err := Partition(p, disordered, 0); !errors.As(err, &se) || !strings.Contains(se.Reason, "canonical order") {
		t.Errorf("Partition(disordered groups) = %v, want a canonical-order *SpecError", err)
	}
}

func TestPartitionSingleCluster(t *testing.T) {
	p := cg16(t)
	sp, _ := ParseSpec("flow:1")
	a, err := Partition(p, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, a)
	if len(a.Clusters) != 1 || len(a.Clusters[0]) != 16 {
		t.Fatalf("clusters = %v", a.Clusters)
	}
	if a.NoIProcs != 0 {
		t.Fatalf("single cluster has %d NoI endpoints", a.NoIProcs)
	}
}

// TestPartitionIsolatedCluster pins the fallback gateway: a cluster with no
// inter-cluster traffic still gets its first member as gateway, keeping the
// flattened composite connected.
func TestPartitionIsolatedCluster(t *testing.T) {
	pat := &model.Pattern{
		Name:  "isolated",
		Procs: 4,
		Messages: []model.Message{
			{ID: 0, Src: 0, Dst: 1, Start: 0, Finish: 1, Bytes: 64},
			{ID: 1, Src: 2, Dst: 3, Start: 0, Finish: 1, Bytes: 64},
		},
	}
	sp, err := ParseSpec("0,1;2,3")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Partition(pat, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, a)
	for c, gws := range a.Gateways {
		if len(gws) != 1 || gws[0] != a.Clusters[c][0] {
			t.Errorf("cluster %d gateways = %v, want first member fallback", c, gws)
		}
	}
}
