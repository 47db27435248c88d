package flitsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/trace"
)

// runReference is Run on the cycle-stepping oracle of engine_ref_test.go: the
// same normalised configuration and fabric, simulateReference in place of
// Simulate. Every suite that needs the reference goes through here.
func runReference(pat *model.Pattern, net *topology.Network, router Router, cfg Config) (Result, error) {
	cfg = cfg.Normalized()
	return simulateReference(pat, router, buildFabric(net, cfg))
}

// runBoth runs the same workload through the event-driven engine and the
// cycle-stepping reference and requires byte-identical Results, identical
// error behavior, identical Observer counter maps, and an identical
// flitsim.kill event sequence. It returns the (shared) Result.
func runBoth(t *testing.T, name string, pat *model.Pattern, net *topology.Network, router Router, cfg Config) Result {
	t.Helper()
	fastCol, refCol := obs.NewCollector(), obs.NewCollector()
	fcfg := cfg
	fcfg.Obs = fastCol
	fastRes, fastErr := Run(pat, net, router, fcfg)
	rcfg := cfg
	rcfg.Obs = refCol
	refRes, refErr := runReference(pat, net, router, rcfg)

	switch {
	case (fastErr == nil) != (refErr == nil):
		t.Fatalf("%s: error mismatch: event-driven %v, reference %v", name, fastErr, refErr)
	case fastErr != nil && fastErr.Error() != refErr.Error():
		t.Fatalf("%s: error text mismatch:\n  event-driven: %v\n  reference:    %v", name, fastErr, refErr)
	}
	if !reflect.DeepEqual(fastRes, refRes) {
		t.Fatalf("%s: Result mismatch:\n  event-driven: %+v\n  reference:    %+v", name, fastRes, refRes)
	}
	if fc, rc := fastCol.Counters(), refCol.Counters(); !reflect.DeepEqual(fc, rc) {
		t.Fatalf("%s: Observer counters mismatch:\n  event-driven: %v\n  reference:    %v", name, fc, rc)
	}
	// Kill events carry the victim identity and cycle number, so matching
	// sequences pin the recovery schedule exactly (timestamps are wall
	// clock and excluded).
	kills := func(c *obs.Collector) []string {
		var out []string
		for _, ev := range c.Events() {
			if ev.Name == "flitsim.kill" {
				out = append(out, ev.Detail)
			}
		}
		return out
	}
	if fk, rk := kills(fastCol), kills(refCol); !reflect.DeepEqual(fk, rk) {
		t.Fatalf("%s: kill sequence mismatch:\n  event-driven: %v\n  reference:    %v", name, fk, rk)
	}
	return fastRes
}

// nasPattern generates a simulation-sized NAS trace for equivalence runs.
func nasPattern(t *testing.T, bench string) *model.Pattern {
	t.Helper()
	pat, err := nas.Generate(bench, 16, nas.Config{Iterations: 1, ByteScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

// TestEngineEquivalenceNAS pins the event-driven engine to the reference on
// every NAS benchmark across the three topology families the paper
// evaluates: mesh (dimension-order), torus (true fully adaptive with escape
// channels), and a synthesized custom topology (source-routed).
func TestEngineEquivalenceNAS(t *testing.T) {
	for _, bench := range nas.Names() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			pat := nasPattern(t, bench)

			rows, cols := topology.GridDims(pat.Procs)
			mnet, mgrid := topology.Mesh(rows, cols)
			runBoth(t, bench+"/mesh", pat, mnet, DOR{Grid: mgrid}, Config{})

			tnet, tgrid := topology.Torus(rows, cols)
			runBoth(t, bench+"/torus", pat, tnet, TFAR{Grid: tgrid}, Config{})

			syn, err := synth.Synthesize(pat, synth.Options{Seed: 1, Restarts: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			runBoth(t, bench+"/synth", pat, syn.Net, SourceRouted{Table: syn.Table}, Config{})
		})
	}
}

// TestEngineEquivalenceDeadlockRecovery exercises the regressive-recovery
// path on both engines: the cyclic ring deadlock storm (repeated kills
// across phases) and the single-channel starvation workload (one victim
// killed repeatedly with doubling timeouts). Recovery runs on a 32-cycle
// cadence that the event-driven engine must hit exactly even while
// fast-forwarding.
func TestEngineEquivalenceDeadlockRecovery(t *testing.T) {
	net, table := ringNet(4)
	var phases []trace.PhaseSpec
	for round := 0; round < 3; round++ {
		var fs []model.Flow
		for i := 0; i < 4; i++ {
			fs = append(fs, model.F(i, (i+2)%4))
		}
		phases = append(phases, trace.PhaseSpec{Flows: fs, Bytes: 4096})
	}
	storm := trace.BuildPhased("storm", 4, phases)
	res := runBoth(t, "ring-storm", storm, net, SourceRouted{Table: table}, Config{
		VCs: 1, BufFlits: 2, DeadlockTimeout: 128, MaxCycles: 5_000_000,
	})
	if res.Kills == 0 {
		t.Error("ring-storm produced no kills; the recovery path was not exercised")
	}

	pnet, ptable := pairNet()
	starve := trace.BuildPhased("starve", 4, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 2), model.F(1, 3)}, Bytes: 16384},
	})
	res = runBoth(t, "pair-starve", starve, pnet, SourceRouted{Table: ptable}, Config{
		VCs: 1, BufFlits: 4, DeadlockTimeout: 256, MaxCycles: 2_000_000,
	})
	if res.Kills < 2 {
		t.Errorf("pair-starve Kills = %d, want >= 2", res.Kills)
	}
}

// TestEngineEquivalenceWedged pins the MaxCycles error path: a permanent
// cyclic deadlock with recovery effectively disabled must wedge both
// engines at the same cycle with the same error, partial Result, and
// counters.
func TestEngineEquivalenceWedged(t *testing.T) {
	net, table := ringNet(4)
	var fs []model.Flow
	for i := 0; i < 4; i++ {
		fs = append(fs, model.F(i, (i+2)%4))
	}
	pat := trace.BuildPhased("wedge", 4, []trace.PhaseSpec{{Flows: fs, Bytes: 4096}})
	res := runBoth(t, "wedge", pat, net, SourceRouted{Table: table}, Config{
		VCs: 1, BufFlits: 2, DeadlockTimeout: 40_000, MaxCycles: 30_000,
	})
	if res.Messages == len(fs) {
		t.Error("wedge workload completed; the MaxCycles path was not exercised")
	}
}

// TestEngineEquivalenceRandomized fuzzes the engines against each other
// with random phased workloads — random flows, sizes, compute gaps, and
// simulator knobs — on mesh and torus. Seeded, so failures reproduce.
func TestEngineEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const procs = 8
	rows, cols := topology.GridDims(procs)
	mnet, mgrid := topology.Mesh(rows, cols)
	tnet, tgrid := topology.Torus(rows, cols)
	timeouts := []int{64, 256, 8192}
	for trial := 0; trial < 8; trial++ {
		nPhases := 1 + rng.Intn(4)
		var phases []trace.PhaseSpec
		for i := 0; i < nPhases; i++ {
			var fs []model.Flow
			nFlows := 1 + rng.Intn(procs)
			for j := 0; j < nFlows; j++ {
				src := rng.Intn(procs)
				dst := rng.Intn(procs)
				fs = append(fs, model.F(src, dst))
			}
			phases = append(phases, trace.PhaseSpec{
				Flows:        fs,
				Bytes:        1 << (4 + rng.Intn(8)),
				ComputeAfter: float64(rng.Intn(200)),
			})
		}
		pat := trace.BuildPhased("rand", procs, phases)
		cfg := Config{
			VCs:             1 + rng.Intn(3),
			BufFlits:        2 + rng.Intn(7),
			DeadlockTimeout: timeouts[rng.Intn(len(timeouts))],
			MaxCycles:       5_000_000,
		}
		runBoth(t, "rand-mesh", pat, mnet, DOR{Grid: mgrid}, cfg)
		runBoth(t, "rand-torus", pat, tnet, TFAR{Grid: tgrid}, cfg)
	}
}
