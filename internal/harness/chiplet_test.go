package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/obs"
)

// chipletCells are the two-level grid cells the invariant and acceptance
// suites pin: the golden workloads at four clusters.
var chipletCells = []struct {
	benchmark string
	procs     int
	clusters  int
}{
	{"CG", 16, 4},
	{"ring-allreduce", 64, 4},
}

// TestTheorem1InvariantHier recomputes Theorem 1 independently for every
// level of the two-level composites: each chiplet's NoC against its
// sub-pattern and the NoI against the gateway-remapped inter-cluster
// traffic, all from the raw route switch/link data.
func TestTheorem1InvariantHier(t *testing.T) {
	c := Quick()
	for _, cell := range chipletCells {
		d, err := c.BuildChipletDesign(cell.benchmark, cell.procs, cell.clusters)
		if err != nil {
			t.Fatalf("%s/%d: %v", cell.benchmark, cell.procs, err)
		}
		levels := d.Levels()
		if len(levels) != cell.clusters+1 {
			t.Fatalf("%s/%d: %d levels at %d clusters, want every chiplet and the NoI", cell.benchmark, cell.procs, len(levels), cell.clusters)
		}
		for _, lv := range levels {
			if lv.Result == nil || !lv.Result.ContentionFree {
				t.Errorf("%s/%d %s: not reported contention-free", cell.benchmark, cell.procs, lv.Pattern.Name)
				continue
			}
			verifyTheorem1Routes(t, lv.Pattern.Name, lv.Pattern, lv.Table.Routes)
		}
	}
}

// TestChipletBeatsMeshOfMeshes is the experiment's acceptance bar: on both
// golden workloads the synthesized two-level composite must finish the
// trace no later than the regular mesh-of-meshes baseline built on the same
// clustering, gateways, and link delays.
func TestChipletBeatsMeshOfMeshes(t *testing.T) {
	c := Quick()
	for _, cell := range chipletCells {
		rows, err := c.Chiplet(cell.benchmark, cell.procs, cell.clusters)
		if err != nil {
			t.Fatalf("%s/%d: %v", cell.benchmark, cell.procs, err)
		}
		byTopo := make(map[string]ChipletRow)
		for _, r := range rows {
			byTopo[r.Topology] = r
		}
		two, mom := byTopo["two-level"], byTopo["mesh-of-meshes"]
		if two.ExecCycles == 0 || mom.ExecCycles == 0 {
			t.Fatalf("%s/%d: missing rows: %+v", cell.benchmark, cell.procs, rows)
		}
		if two.ExecCycles > mom.ExecCycles {
			t.Errorf("%s/%d: two-level exec %d cycles > mesh-of-meshes %d",
				cell.benchmark, cell.procs, two.ExecCycles, mom.ExecCycles)
		}
		if !two.ContentionFree {
			t.Errorf("%s/%d: two-level composite not contention-free", cell.benchmark, cell.procs)
		}
	}
}

// TestChipletRowsAndEvents pins the experiment surface: three rows in
// ChipletTopologies order, flat-normalized columns, and one
// harness.chiplet_row event per row in the collected RunReport.
func TestChipletRowsAndEvents(t *testing.T) {
	c := Quick()
	col := obs.NewCollector()
	c.Obs = col
	rows, err := c.Chiplet("CG", 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	topos := ChipletTopologies()
	if len(rows) != len(topos) {
		t.Fatalf("got %d rows, want %d", len(rows), len(topos))
	}
	for i, r := range rows {
		if r.Topology != topos[i] {
			t.Errorf("row %d topology %q, want %q", i, r.Topology, topos[i])
		}
		if r.Benchmark != "CG" || r.Procs != 16 || r.Clusters != 4 {
			t.Errorf("row %d mislabeled: %+v", i, r)
		}
		if r.ExecCycles <= 0 {
			t.Errorf("row %d: no cycles simulated: %+v", i, r)
		}
		if r.Switches <= 0 || r.Links <= 0 {
			t.Errorf("row %d: missing resources: %+v", i, r)
		}
	}
	if rows[0].ExecNorm != 1.0 {
		t.Errorf("flat row not the normalization baseline: ExecNorm=%v", rows[0].ExecNorm)
	}
	rep := col.Report("test")
	events := 0
	for _, e := range rep.Events {
		if e.Name == "harness.chiplet_row" {
			events++
		}
	}
	if events != len(topos) {
		t.Errorf("got %d harness.chiplet_row events, want %d", events, len(topos))
	}
	table := RenderChipletTable("chiplet", rows)
	for _, topo := range topos {
		if !strings.Contains(table, topo) {
			t.Errorf("rendered table missing %q:\n%s", topo, table)
		}
	}
}

// BuildChipletDesign synthesizes just the two-level composite for a
// benchmark — the entry the invariant suite drives.
func (c Config) BuildChipletDesign(benchmark string, procs, clusters int) (*hier.Design, error) {
	pat, err := c.generate(benchmark, procs)
	if err != nil {
		return nil, fmt.Errorf("chiplet %s/%d: %v", benchmark, procs, err)
	}
	return c.twoLevel(pat, clusters)
}
