package flitsim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/topology"
	"repro/internal/trace"
)

// steppedCycles runs the workload on a private engine and returns the
// simulated length next to the number of cycles run() processed in full.
// stepped has no Observer counter on purpose: runBoth compares counter maps
// with the cycle-stepping oracle, which steps every cycle.
func steppedCycles(t *testing.T, pat *model.Pattern, net *topology.Network, rt router, cfg Config) (exec, stepped int64) {
	t.Helper()
	e := new(engine)
	e.reset(pat, rt, buildFabric(net, cfg.Normalized()))
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	return e.now, e.stepped
}

// TestLeapFires pins that steady wormhole streaming and round-robin
// arbitration are leapt, not stepped: a silently disabled leap, or one
// limited to period 1, must fail here, not just slow a benchmark. Identity
// with the oracle is the equivalence suite's job; this one only counts.
func TestLeapFires(t *testing.T) {
	// One 64 KB message (16,385 flits) over a 3-hop source route: a head
	// fill, one leap to the tail, a drain.
	net, table := lineNet(4)
	one := trace.BuildPhased("one", 4, []trace.PhaseSpec{{Flows: []model.Flow{model.F(0, 3)}, Bytes: 64 << 10}})
	// A moving worm never stalls, so the deadlock timeout must not cap its leap.
	for _, delay := range []int{1, 3} {
		cfg := Config{DeadlockTimeout: 32, LinkDelay: func(a, b topology.SwitchID) int { return delay }}
		exec, stepped := steppedCycles(t, one, net, sourceRouted{table}, cfg)
		if exec <= 16_000 || stepped >= 200 {
			t.Errorf("64 KB over 3 hops, link delay %d: stepped %d of %d cycles, want < 200 of > 16,000", delay, stepped, exec)
		}
	}

	// Two worms sharing one crossbar output take turns on it: a period-2
	// state, leapt like a repeating cycle. Stepping it instead costs a cycle
	// per flit, about 8,200.
	two := trace.BuildPhased("two", 4, []trace.PhaseSpec{{Flows: []model.Flow{model.F(0, 2), model.F(1, 2)}, Bytes: 16 << 10}})
	xnet := topology.Crossbar(4)
	exec, stepped := steppedCycles(t, two, xnet, crossbarRouter(t, xnet), Config{})
	if exec <= 8_000 || stepped >= 200 {
		t.Errorf("two 16 KB worms rotating on one output: stepped %d of %d cycles, want < 200 of > 8,000", stepped, exec)
	}

	// Full-size BT/16 on the crossbar: worms bound for one processor take
	// turns on its ejection channel, a period-4 state (22,082 stepped
	// cycles when only a repeating cycle was leapt).
	if r := sweepRow(t, "BT/16 crossbar"); r.exec != 164_592 || r.stepped >= 4_000 {
		t.Errorf("BT/16 on the crossbar: stepped %d of %d cycles, want < 4,000 of 164,592", r.stepped, r.exec)
	}

	// tree-broadcast/16 on the ring, the slowest cell of the paper sweep:
	// periods 2, 3 and 6 (101,743 stepped cycles with single cycles only).
	if r := sweepRow(t, "tree-broadcast/16 ring"); r.exec != 111_863 || r.stepped >= 4_000 {
		t.Errorf("tree-broadcast/16 on the ring: stepped %d of %d cycles, want < 4,000 of 111,863", r.stepped, r.exec)
	}
}

// steppedRow is one full-size cell of the paper sweep with its simulated
// length and the cycles run() processed in full.
type steppedRow struct {
	name          string
	exec, stepped int64
}

// sweep memoises steppedSweep: TestLeapFires and TestSteppedGolden read the
// same rows, and the cells are the package's longest simulations. Neither
// test is parallel, so no lock is needed.
var sweep []steppedRow

// steppedSweep runs full-size BT, CG, FFT, MG and SP/16 on the crossbar,
// the mesh and the folded torus, and tree-broadcast/16 on the ring, once
// per test binary.
func steppedSweep(t *testing.T) []steppedRow {
	t.Helper()
	if sweep != nil {
		return sweep
	}
	type cell struct {
		name string
		pat  *model.Pattern
		net  *topology.Network
		rt   router
		cfg  Config
	}
	rows, cols := topology.GridDims(16)
	mnet, mgrid := topology.Mesh(rows, cols)
	tnet, tgrid := topology.Torus(rows, cols)
	xnet := topology.Crossbar(16)
	rnet, rgrid := topology.Ring(16)
	mdor, xbar := meshRouter(t, mnet, mgrid), crossbarRouter(t, xnet)
	folded := Config{LinkDelay: func(a, b topology.SwitchID) int { return 2 }}
	var cells []cell
	for _, bench := range []string{"BT", "CG", "FFT", "MG", "SP"} {
		pat, err := nas.Generate(bench, 16, nas.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells,
			cell{bench + "/16 crossbar", pat, xnet, xbar, Config{}},
			cell{bench + "/16 mesh", pat, mnet, mdor, Config{}},
			cell{bench + "/16 folded-torus", pat, tnet, tfar{tgrid}, folded})
	}
	tb, err := collective.Generate("tree-broadcast", 16, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{"tree-broadcast/16 ring", tb, rnet, tfar{rgrid}, Config{}})
	out := make([]steppedRow, len(cells))
	for i, c := range cells {
		exec, stepped := steppedCycles(t, c.pat, c.net, c.rt, c.cfg)
		out[i] = steppedRow{c.name, exec, stepped}
	}
	sweep = out
	return sweep
}

// sweepRow is the named row of steppedSweep.
func sweepRow(t *testing.T, name string) steppedRow {
	t.Helper()
	for _, r := range steppedSweep(t) {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no sweep cell %q", name)
	return steppedRow{}
}

var update = flag.Bool("update", false, "rewrite testdata/stepped.golden")

// TestSteppedGolden pins the engine's work, not only its results: for the
// full-size cells of the paper sweep it records the simulated length and
// the cycles run() processed in full, so a change that skips or leaps less
// (or more) fails here even when every Result is unchanged. -update
// rewrites testdata/stepped.golden.
func TestSteppedGolden(t *testing.T) {
	var got bytes.Buffer
	for _, r := range steppedSweep(t) {
		fmt.Fprintf(&got, "%-24s exec %7d  stepped %6d\n", r.name, r.exec, r.stepped)
	}
	const path = "testdata/stepped.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stepped cycles moved:\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}
