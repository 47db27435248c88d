package harness

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// experimentCounters runs Quick Figure 8(a) and the CG-16 chiplet cell —
// generation, synthesis, floorplanning, flat and hierarchical replays, with
// the experiment cells and the stages inside each cell on the pool — under
// a Collector at the given worker count and returns the counter snapshot.
func experimentCounters(t *testing.T, workers int) map[string]int64 {
	t.Helper()
	col := obs.NewCollector()
	c := Quick()
	c.Workers = workers
	c.Obs = col
	if _, err := c.Figure8("small"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Chiplet("CG", 16, 4); err != nil {
		t.Fatal(err)
	}
	if err := col.Report("test").Validate(); err != nil {
		t.Fatalf("workers=%d report invalid: %v", workers, err)
	}
	return col.Counters()
}

// TestCountersWorkerInvariant is the telemetry determinism contract:
// counter-valued telemetry is emitted from deterministic folds, never as a
// function of the pool's shape, so the full counter map of a run is
// byte-identical at -workers 1 and -workers 8. (Span timings are
// wall-clock and carry no such guarantee.)
func TestCountersWorkerInvariant(t *testing.T) {
	serial := experimentCounters(t, 1)
	wide := experimentCounters(t, 8)
	if !reflect.DeepEqual(serial, wide) {
		for k, v := range serial {
			if wide[k] != v {
				t.Errorf("counter %s: workers=1 -> %d, workers=8 -> %d", k, v, wide[k])
			}
		}
		for k, v := range wide {
			if _, ok := serial[k]; !ok {
				t.Errorf("counter %s: only present at workers=8 (= %d)", k, v)
			}
		}
	}
	// Sanity: the map is not trivially empty and covers every stage.
	for _, want := range []string{"nas.patterns", "synth.runs", "synth.restarts_run", "floorplan.place_calls", "flitsim.flits", "harness.fig8.cells"} {
		if serial[want] == 0 {
			t.Errorf("counter %s = 0, want > 0 after a full run", want)
		}
	}
}

// TestObsReachesEveryFloorplanCall pins Config.Obs's promise for the two
// experiments that floorplan outside BuildDesign: Walkthrough places its one
// network, MultiApp the merged network on top of one per application.
func TestObsReachesEveryFloorplanCall(t *testing.T) {
	run := func(experiment func(Config) error) int64 {
		t.Helper()
		col := obs.NewCollector()
		c := Quick()
		c.Obs = col
		if err := experiment(c); err != nil {
			t.Fatal(err)
		}
		return col.Counters()["floorplan.place_calls"]
	}
	if got := run(func(c Config) error { _, err := c.Walkthrough(); return err }); got != 1 {
		t.Errorf("Walkthrough recorded %d floorplan.place_calls, want 1", got)
	}
	apps := []string{"CG", "FFT"}
	if got := run(func(c Config) error { _, err := c.MultiApp(apps, 16); return err }); got != int64(len(apps))+1 {
		t.Errorf("MultiApp recorded %d floorplan.place_calls, want %d (one per application plus the merged network)", got, len(apps)+1)
	}
}
