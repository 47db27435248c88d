package hier

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/synth"
)

// hierOptions is the fixed quick-synthesis configuration the determinism and
// golden suites share: both levels run the same seeded two-restart search.
func hierOptions(workers int) Options {
	lvl := synth.Options{Seed: 1, Restarts: 2, Workers: workers}
	return Options{NoC: lvl, NoI: lvl}
}

// TestNoIOptionsInheritsUnlessOverridden: zero budgets leave the NoC options
// as they are; a non-zero budget replaces that constraint and nothing else.
func TestNoIOptionsInheritsUnlessOverridden(t *testing.T) {
	noc := synth.Options{Seed: 3, Restarts: 2, Constraints: synth.Constraints{MaxDegree: 6, MaxProcsPerSwitch: 3}}
	if got := NoIOptions(noc, 0, 0); got != noc {
		t.Errorf("no overrides: %+v, want the NoC options %+v", got, noc)
	}
	want := noc
	want.MaxDegree = 4
	if got := NoIOptions(noc, 4, 0); got != want {
		t.Errorf("degree override: %+v, want %+v", got, want)
	}
	want.MaxProcsPerSwitch = 2
	if got := NoIOptions(noc, 4, 2); got != want {
		t.Errorf("both overrides: %+v, want %+v", got, want)
	}
}

func designBytes(t *testing.T, d *Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveDesign(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterminismHierWorkers extends the repo's worker-count determinism
// contract to two-level composites: the serialized hier-design must be
// byte-identical whether each level's restarts run serially or fanned out
// over several workers. Run under `make determinism` with -count=2, which
// also catches run-to-run nondeterminism.
func TestDeterminismHierWorkers(t *testing.T) {
	for _, pat := range []*model.Pattern{cg16(t), ring64(t)} {
		spec, err := ParseSpec("flow:4")
		if err != nil {
			t.Fatal(err)
		}
		var base []byte
		for _, workers := range []int{1, 2, 4} {
			opt := hierOptions(workers)
			opt.Spec = spec
			d, err := Synthesize(pat, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", pat.Name, workers, err)
			}
			b := designBytes(t, d)
			if base == nil {
				base = b
			} else if !bytes.Equal(base, b) {
				t.Errorf("%s: workers=%d design bytes differ from workers=1", pat.Name, workers)
			}
		}
	}
}

// TestDeterminismHierSingleClusterDegenerate pins the degenerate case: one
// cluster means no NoI, no gateways, and a lone chiplet whose synthesis must
// be byte-for-byte the flat synthesis of the same pattern. Any drift here
// means the hierarchical path perturbs the search it claims to merely
// orchestrate.
func TestDeterminismHierSingleClusterDegenerate(t *testing.T) {
	pat := cg16(t)
	spec, err := ParseSpec("flow:1")
	if err != nil {
		t.Fatal(err)
	}
	opt := hierOptions(2)
	opt.Spec = spec
	d, err := Synthesize(pat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Chiplets) != 1 || d.NoI != nil {
		t.Fatalf("degenerate design has %d chiplets, NoI=%v", len(d.Chiplets), d.NoI != nil)
	}
	// One level and no nil standing in for the NoI, before and after a
	// LoadDesign round trip; appending to Levels never writes into Chiplets'
	// spare capacity.
	var saved bytes.Buffer
	if err := SaveDesign(&saved, d); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesign(&saved)
	if err != nil {
		t.Fatal(err)
	}
	for _, dd := range []*Design{d, loaded} {
		if lv := dd.Levels(); len(lv) != 1 || lv[0] == nil || lv[0] != dd.Chiplets[0] {
			t.Fatalf("single-cluster Levels() = %v, want [Chiplets[0]]", lv)
		}
	}
	d.Chiplets = append(make([]*Level, 0, 2), d.Chiplets...)
	if _ = append(d.Levels(), &Level{}); d.Chiplets[:2][1] != nil {
		t.Error("appending to Levels() wrote into Chiplets' backing array")
	}

	// Flat reference: the chiplet sub-pattern is the original under the
	// ".c0" name, so rename before synthesizing (the pattern name only
	// feeds the generated network's name).
	flatPat := *pat
	flatPat.Name = pat.Name + ".c0"
	res, err := synth.Synthesize(&flatPat, synth.Options{Seed: 1, Restarts: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var hierBuf, flatBuf bytes.Buffer
	if err := synth.SaveDesign(&hierBuf, d.Chiplets[0].Net, d.Chiplets[0].Table); err != nil {
		t.Fatal(err)
	}
	if err := synth.SaveDesign(&flatBuf, res.Net, res.Table); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hierBuf.Bytes(), flatBuf.Bytes()) {
		t.Error("single-cluster chiplet design differs from flat synthesis of the same pattern")
	}
}
