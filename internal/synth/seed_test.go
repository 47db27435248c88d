package synth

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// TestDeterminismSeededWorkers extends the worker-count determinism contract
// to warm-started runs: with a SeedDesign set, every Workers value must
// return byte-identical designs, and the seeded-restart count must be
// worker-invariant.
func TestDeterminismSeededWorkers(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2, Workers: 1})
	sd := SeedFromDesign(base.Net, base.Table)
	if sd == nil {
		t.Fatal("SeedFromDesign returned nil for a real design")
	}
	opt := Options{Seed: 5, Restarts: 3, SeedDesign: sd}
	opt.Workers = 1
	want := synthOrDie(t, pat, opt)
	wantBytes := designBytes(t, want)
	if want.Stats.SeededRestarts == 0 {
		t.Fatal("seeded run reported zero SeededRestarts")
	}
	for _, w := range []int{2, 3, 8} {
		opt.Workers = w
		got := synthOrDie(t, pat, opt)
		if !bytes.Equal(designBytes(t, got), wantBytes) {
			t.Errorf("Workers:%d seeded design differs from Workers:1", w)
		}
		if got.Stats.SeededRestarts != want.Stats.SeededRestarts {
			t.Errorf("Workers:%d SeededRestarts = %d, want %d",
				w, got.Stats.SeededRestarts, want.Stats.SeededRestarts)
		}
	}
}

// TestSeedQualityNeverWorse pins the acceptance criterion: on the same
// trace, a seeded run's resource cost never exceeds the cold run's — the
// seed replays the cold winner's switch tree and refinement only commits
// improvements.
func TestSeedQualityNeverWorse(t *testing.T) {
	for _, name := range nas.Names() {
		small, _ := nas.PaperProcs(name)
		pat, err := nas.Generate(name, small, quickNASConfig())
		if err != nil {
			t.Fatal(err)
		}
		cold := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2})
		sd := SeedFromDesign(cold.Net, cold.Table)
		fp := trace.FingerprintPattern(pat)
		sd.ChangedProcs = fp.ChangedSegments(fp) // identical trace: nothing changed
		warm := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2, SeedDesign: sd})
		if warm.Stats.SeededRestarts == 0 {
			t.Errorf("%s: no seeded restarts ran", name)
		}
		if cold.ConstraintsMet && !warm.ConstraintsMet {
			t.Errorf("%s: seeded run lost ConstraintsMet", name)
		}
		if cold.ContentionFree && !warm.ContentionFree {
			t.Errorf("%s: seeded run lost ContentionFree", name)
		}
		if wc, cc := warm.ResourceCost(), cold.ResourceCost(); wc > cc {
			t.Errorf("%s: seeded cost %d exceeds cold cost %d", name, wc, cc)
		}
	}
}

// TestSeedFallbackUnusable pins the cold-fallback contract for seeds that
// carry no usable information: the run must be byte-identical to a cold run.
func TestSeedFallbackUnusable(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold := designBytes(t, synthOrDie(t, pat, Options{Seed: 1, Restarts: 2}))
	for _, sd := range []*SeedDesign{
		nil,
		{},                                 // no groups
		{Assign: [][]int{{99, 100}, {-3}}}, // all out of range
		{Assign: [][]int{{0, 1, 2, 3, 4}}}, // one group = megaswitch
		{Assign: [][]int{{7, 7}, {200}}},   // dupes + out of range: one group left
	} {
		got := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2, SeedDesign: sd})
		if !bytes.Equal(designBytes(t, got), cold) {
			t.Errorf("seed %+v: design differs from cold run", sd)
		}
		if got.Stats.SeededRestarts != 0 {
			t.Errorf("seed %+v: counted %d seeded restarts, want 0", sd, got.Stats.SeededRestarts)
		}
	}
}

// TestSeedAcrossVariants warm-starts a scaled variant of the seed trace and
// checks the output still meets the formal guarantees (constraints + Theorem
// 1 verdict) with cost no worse than that variant's own cold run.
func TestSeedAcrossVariants(t *testing.T) {
	base, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseRes := synthOrDie(t, base, Options{Seed: 1, Restarts: 2})
	baseFP := trace.FingerprintPattern(base)

	variant, err := nas.Generate("CG", 16, nas.Config{Iterations: 2, ByteScale: 2, ComputeScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	varFP := trace.FingerprintPattern(variant)

	sd := SeedFromDesign(baseRes.Net, nil)
	sd.ChangedProcs = varFP.ChangedSegments(baseFP)
	cold := synthOrDie(t, variant, Options{Seed: 1, Restarts: 2})
	warm := synthOrDie(t, variant, Options{Seed: 1, Restarts: 2, SeedDesign: sd})
	if !warm.ConstraintsMet {
		t.Error("seeded variant run failed constraints")
	}
	if !warm.ContentionFree {
		t.Error("seeded variant run is not contention-free")
	}
	if wc, cc := warm.ResourceCost(), cold.ResourceCost(); wc > cc {
		t.Errorf("seeded variant cost %d exceeds cold cost %d", wc, cc)
	}
}

// TestSeedExtensionRestartsAreCold checks the fallback path end to end: the
// extension loop (drawn only while constraints are unmet) must ignore the
// seed, so SeededRestarts never exceeds the configured Restarts.
func TestSeedExtensionRestartsAreCold(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := synthOrDie(t, pat, Options{Seed: 1, Restarts: 1})
	// An adversarially tight constraint set keeps runs failing so the
	// extension loop triggers.
	opt := Options{Seed: 1, Restarts: 2, SeedDesign: SeedFromDesign(base.Net, nil)}
	opt.MaxDegree = 2
	opt.MaxProcsPerSwitch = 1
	res := synthOrDie(t, pat, opt)
	if res.Stats.RestartsRun <= opt.Restarts && res.ConstraintsMet {
		t.Skip("constraints unexpectedly satisfiable; extension loop not exercised")
	}
	if res.Stats.SeededRestarts > opt.Restarts {
		t.Errorf("SeededRestarts %d exceeds configured Restarts %d — extension restarts were seeded",
			res.Stats.SeededRestarts, opt.Restarts)
	}
}

// withoutFlow returns a copy of p with every message of flow f dropped: a
// structural variant whose fingerprint differs only at f's two endpoints.
func withoutFlow(p *model.Pattern, f model.Flow) *model.Pattern {
	v := &model.Pattern{Name: p.Name, Procs: p.Procs}
	for _, m := range p.Messages {
		if m.Flow() != f {
			m.ID = len(v.Messages)
			v.Messages = append(v.Messages, m)
		}
	}
	return v
}

// TestSeedForeignDesign seeds runs under the golden corpus's seeded
// constraints from designs that are not the run's own. A foreign seed
// (BT/16's tree for tree-broadcast/16, every segment changed) replays a tree
// that violates the constraints, so the partition loop repairs it; applySeed
// runs no polish of its own on a violating replay, and a backboneReroute
// there commits on this seed and makes the design cost 26. A near variant
// (tree-broadcast/16 without its 3→11 flow, seeded from its own tree with
// two segments changed) re-runs Best_Route only on the switches hosting the
// changed processors; without that pass it costs 23.
func TestSeedForeignDesign(t *testing.T) {
	bt, err := nas.Generate("BT", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := collective.Generate("tree-broadcast", 16, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		seed, pat *model.Pattern
		near      bool
		cost      int
		sha       string // pinned SHA-256 of the design bytes, when non-empty
	}{
		{name: "BT16-to-tree-broadcast16", seed: bt, pat: tree, cost: 23},
		{name: "tree-broadcast16-near", seed: tree, pat: withoutFlow(tree, model.F(3, 11)), near: true, cost: 20,
			sha: "0f1099fe4fc5872d452e96c758ddc86343ec193343cc5414c5add4c55dee3fd6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := synthOrDie(t, tc.seed, Options{Seed: 1, Restarts: 2})
			sd := SeedFromDesign(base.Net, base.Table)
			fp, seedFP := trace.FingerprintPattern(tc.pat), trace.FingerprintPattern(tc.seed)
			sd.ChangedProcs = fp.ChangedSegments(seedFP)
			if d, n := fp.Distance(seedFP), len(sd.ChangedProcs); tc.near != (d <= 0.4 && n > 0 && n < tc.pat.Procs) {
				t.Fatalf("distance %.2f with %d changed processors; near = %v", d, n, tc.near)
			}
			res := synthOrDie(t, tc.pat, Options{Seed: 9, Restarts: 2, SeedDesign: sd,
				Constraints: Constraints{MaxDegree: 4, MaxProcsPerSwitch: 3}})
			if !res.ContentionFree || !res.ConstraintsMet {
				t.Fatalf("ContentionFree %v, ConstraintsMet %v; want both", res.ContentionFree, res.ConstraintsMet)
			}
			if c := res.ResourceCost(); c != tc.cost {
				t.Errorf("ResourceCost = %d, want %d", c, tc.cost)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(designBytes(t, res))); tc.sha != "" && sum != tc.sha {
				t.Errorf("design sha256 %s, want %s", sum, tc.sha)
			}
		})
	}
}

// TestSeedRevisitingRoutes pins the simple-path invariant where a route can
// enter from outside: a seed route that revisits a switch is inconsistent, so
// its flow stays on its direct path. Every CG/16 seed route with a hop gets a
// tail that crosses its last hop again, and the design must be byte-identical
// to the same seed with those routes deleted. The seed's structure is unchanged, so
// the replay is kept as it is (seedFast) and a revisiting route that got in
// would reach finalize.
func TestSeedRevisitingRoutes(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2})
	fp := trace.FingerprintPattern(pat)
	seed := func() *SeedDesign {
		sd := SeedFromDesign(base.Net, base.Table)
		sd.ChangedProcs = fp.ChangedSegments(fp)
		return sd
	}
	revisit, without := seed(), seed()
	for f, r := range revisit.Routes {
		if n := len(r); n >= 2 {
			revisit.Routes[f] = append(slices.Clone(r), r[n-2], r[n-1])
			delete(without.Routes, f)
		}
	}
	if len(without.Routes) == len(revisit.Routes) {
		t.Fatal("no seed route has a hop")
	}
	opt := Options{Seed: 1, Restarts: 2}
	opt.SeedDesign = revisit
	got := designBytes(t, synthOrDie(t, pat, opt))
	opt.SeedDesign = without
	if want := designBytes(t, synthOrDie(t, pat, opt)); !bytes.Equal(got, want) {
		t.Error("a seed with revisiting routes gives a design that differs from the same seed without them")
	}
}
