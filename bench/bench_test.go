package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/bench/workload"
)

// The benchmark addresses everything relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesCode(t *testing.T) {
	if got, want := readManifest(t), buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the code's tables; regenerate with `go run ./bench -manifest > BENCHMARK.json`")
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestMiniatures runs a miniature of each workload, untraced and traced,
// against a real nocd child, and holds the emitted metric names to
// BENCHMARK.json.
func TestMiniatures(t *testing.T) {
	m := readManifest(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	specs := workload.Specs()
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(m.Workloads), len(specs))
	}
	for i, spec := range specs {
		if m.Workloads[i].Name != spec.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, m.Workloads[i].Name, spec.Name)
		}
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, err := run(runOpts{spec: spec, seed: 1, seconds: 0.2, trace: traced, mini: true,
				setups: 1, outDir: out, cleanup: &cleanups{}}, g, &log)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", spec.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					spec.Name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := names(m.EndToEnd)
			if traced {
				want = names(m.PerLayer)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%t emits %v, BENCHMARK.json lists %v", spec.Name, traced, got, want)
			}
			// The result line is the last line and parses back.
			lines := bytes.Split(bytes.TrimSpace(log.Bytes()), []byte("\n"))
			var back result
			if err := json.Unmarshal(lines[len(lines)-1], &back); err != nil || len(back.Metrics) != len(want) {
				t.Errorf("%s trace=%t: last line is not the result object: %v", spec.Name, traced, err)
			}
			if !traced {
				for _, d := range endToEnd {
					if v := res.Metrics[d.Name].Value; v <= 0 && !(d.Name == "focus_p50_ms" && spec.Name == workload.HitReplay) {
						t.Errorf("%s: %s = %g, want a positive measurement", spec.Name, d.Name, v)
					}
				}
			}
		}
	}
}

// A dead child fails the run instead of yielding a short measurement.
func TestDeadChildFailsRun(t *testing.T) {
	out := t.TempDir()
	bin, err := buildNocd(&cleanups{}, out)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.Lookup(workload.ColdSynth)
	clean := &cleanups{}
	c, err := startChild(clean, bin, spec.Server.Flags()...)
	if err != nil {
		t.Fatal(err)
	}
	c.cmd.Process.Kill()
	<-c.exit
	g := &golden{Designs: map[string]goldenDesign{}}
	o := runOpts{spec: spec, mini: true, outDir: out}
	_, err = window(o, &serverEnv{child: c}, spec.NewStream(1, true), 0, 1, newChecker(g, false), &hostMeter{})
	if err == nil {
		t.Fatal("window over a dead nocd returned no error")
	}
	clean.run() // stop is idempotent on a reaped child
}

// An interrupt during set-up, here while hit_replay is being primed, stops
// the child that exists, removes its data directory, and keeps the restart
// from starting another.
func TestInterruptDuringSetUp(t *testing.T) {
	out := t.TempDir()
	bin, err := buildNocd(&cleanups{}, out)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.Lookup(workload.HitReplay)
	clean := &cleanups{}
	done := make(chan error, 1)
	go func() {
		var tl tally
		_, err := setUp(runOpts{spec: spec, mini: true, outDir: out, cleanup: clean}, bin, newChecker(g, false), &tl)
		done <- err
	}()
	// The data directory and the first child are the first two acquisitions.
	for acquired := 0; acquired < 2; time.Sleep(time.Millisecond) {
		clean.mu.Lock()
		acquired = len(clean.fns)
		clean.mu.Unlock()
	}
	clean.abort()
	if err := <-done; err == nil {
		t.Fatal("set-up finished despite the interrupt")
	}
	if left, _ := filepath.Glob(filepath.Join(out, "data-*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if line, _ := os.ReadFile(p); bytes.HasPrefix(line, []byte(bin+"\x00")) {
			t.Errorf("nocd still running: %s", p)
		}
	}
	if err := clean.acquire(func() (func(), error) { return func() {}, nil }); !errors.Is(err, errInterrupted) {
		t.Errorf("acquire after abort: %v, want errInterrupted", err)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 10e6},
		{Name: "a", Parent: 0, StartNs: 10e6, EndNs: 13e6},
		{Name: "b", Parent: 1, StartNs: 13e6, EndNs: 14e6},
		{Name: "a", Parent: 0, StartNs: 14e6, EndNs: 30e6}, // outlasts the root's remainder
	}}
	self := r.selfMs()
	if got := self["root"]; len(got) != 1 || got[0] != 0 {
		t.Errorf("root self = %v, want [0] (clamped)", got)
	}
	if got := self["a"]; len(got) != 2 || got[0] != 2 || got[1] != 16 {
		t.Errorf("a self = %v, want [2 16]", got)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", "", 0, -1))
	if nilRec.selfMs() != nil {
		t.Error("a nil recorder must record nothing")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 7, 4}, 2.5, 9.25},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if p := percentile([]float64{4, 1, 3, 2}, 50); p != 2.5 {
		t.Errorf("median of 1..4 = %g", p)
	}
}

func TestHostSpeed(t *testing.T) {
	if s := hostSpeed(nil); s != 1 {
		t.Errorf("speed without probes = %g, want 1", s)
	}
	if s := hostSpeed([]float64{2 * hostNominalMs, 2 * hostNominalMs}); s != 0.5 {
		t.Errorf("speed at twice the nominal time = %g, want 0.5", s)
	}
	var m hostMeter
	m.probe()
	if len(m.wallMs) != 3 || len(m.cpuMs) != 3 || m.spent <= 0 || m.speed() <= 0 || m.cpuSpeed() <= 0 {
		t.Errorf("probe recorded wall %v cpu %v spent %v", m.wallMs, m.cpuMs, m.spent)
	}
}
