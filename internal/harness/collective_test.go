package harness

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/obs"
)

// TestCollectivesPipeline is the end-to-end check for the collective
// workloads: every registered collective is generated, synthesized,
// floorplanned, and simulated on the crossbar/ring/mesh/generated grid. The
// paper's claim carries over from the NAS cells — the synthesized network's
// mean packet latency beats or matches the ring and mesh the collectives
// conventionally run on — and the comparison table is emitted through the
// Observer as harness.collective_row events so a RunReport carries it.
func TestCollectivesPipeline(t *testing.T) {
	col := obs.NewCollector()
	c := Quick()
	c.Obs = col

	const nodes = 8
	rows, err := c.Collectives(nodes)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(collective.Names()) * len(CollectiveTopologies())
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}

	byCell := map[string]map[string]PerfRow{}
	for _, r := range rows {
		if byCell[r.Benchmark] == nil {
			byCell[r.Benchmark] = map[string]PerfRow{}
		}
		byCell[r.Benchmark][r.Topology] = r
	}
	for _, name := range collective.Names() {
		cell := byCell[name]
		if len(cell) != len(CollectiveTopologies()) {
			t.Fatalf("%s: %d topologies, want %d", name, len(cell), len(CollectiveTopologies()))
		}
		xbar, ring, mesh, gen := cell["crossbar"], cell["ring"], cell["mesh"], cell["generated"]
		if xbar.ExecNorm != 1 || xbar.CommNorm != 1 {
			t.Errorf("%s: crossbar norms %.3f/%.3f, want 1/1", name, xbar.ExecNorm, xbar.CommNorm)
		}
		// The headline assertion: the generated network serves the
		// collective at least as fast as the ring and mesh baselines.
		if gen.MeanLatency > ring.MeanLatency {
			t.Errorf("%s: generated latency %.2f worse than ring %.2f", name, gen.MeanLatency, ring.MeanLatency)
		}
		if gen.MeanLatency > mesh.MeanLatency {
			t.Errorf("%s: generated latency %.2f worse than mesh %.2f", name, gen.MeanLatency, mesh.MeanLatency)
		}
		if gen.ExecCycles > ring.ExecCycles || gen.ExecCycles > mesh.ExecCycles {
			t.Errorf("%s: generated exec %d slower than ring %d or mesh %d",
				name, gen.ExecCycles, ring.ExecCycles, mesh.ExecCycles)
		}
		for topo, r := range cell {
			if r.Kills != 0 {
				t.Errorf("%s/%s: %d killed packets", name, topo, r.Kills)
			}
			if r.Procs != nodes {
				t.Errorf("%s/%s: procs %d, want %d", name, topo, r.Procs, nodes)
			}
		}
	}

	// The comparison table must land in the RunReport as one
	// harness.collective_row event per row.
	rep := col.Report("harness-test")
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	var tableEvents int
	for _, ev := range rep.Events {
		if ev.Name != "harness.collective_row" {
			continue
		}
		tableEvents++
		if !strings.Contains(ev.Detail, "lat=") {
			t.Errorf("collective_row event missing latency: %q", ev.Detail)
		}
	}
	if tableEvents != wantRows {
		t.Errorf("report has %d harness.collective_row events, want %d", tableEvents, wantRows)
	}

	out := RenderPerfTable("collectives", rows)
	for _, name := range collective.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("table missing %s:\n%s", name, out)
		}
	}
}

// TestBuildCollectiveDesignErrors pins that the collective package's typed
// errors survive the harness layer when BuildDesign resolves a collective
// name, mirroring TestBuildDesignInvalidBenchmark.
func TestBuildCollectiveDesignErrors(t *testing.T) {
	_, err := Quick().BuildDesign("allreduce", 8)
	var uce *collective.UnknownCollectiveError
	if !errors.As(err, &uce) {
		t.Fatalf("got %v, want *collective.UnknownCollectiveError", err)
	}
	_, err = Quick().BuildDesign("tree-broadcast", 12)
	var nce *collective.NodeCountError
	if !errors.As(err, &nce) {
		t.Fatalf("got %v, want *collective.NodeCountError", err)
	}
}
