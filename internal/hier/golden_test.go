package hier

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flitsim"
	"repro/internal/model"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the golden hier-design files")

// goldenCells are the two acceptance workloads at four clusters, each with
// the execution time and network load of its flattened replay under the
// design's own two-class link delays.
var goldenCells = []struct {
	benchmark            string
	pat                  func(testing.TB) *model.Pattern
	execCycles, flitHops int64
}{
	{"CG.16", cg16, 37169, 619032},
	{"ring-allreduce.64", ring64, 23863, 2555280},
}

// goldenSummary renders a reviewable per-level digest of a two-level
// composite: one line per chiplet and one for the NoI with its resource
// counts, contention verdict, and the SHA-256 of its serialized single-level
// design, followed by the SHA-256 of the whole hier-design v1 encoding. A
// cost regression, a changed route, or a serialization drift each flip a
// visibly different line.
func goldenSummary(t *testing.T, d *Design) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "hier-golden v1 %s\n", d.Name)
	fmt.Fprintf(&b, "procs %d clusters %d gateway_width %d noi_link_delay %d\n",
		d.Procs, len(d.Assign.Clusters), d.GatewayWidth, d.NoILinkDelay)
	level := func(label string, lv *Level) {
		var lb bytes.Buffer
		if err := synth.SaveDesign(&lb, lv.Net, lv.Table); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(lb.Bytes())
		fmt.Fprintf(&b, "%s switches %d links %d contention_free %t sha256 %s\n",
			label, lv.Net.NumSwitches(), lv.Net.TotalLinks(),
			lv.Result != nil && lv.Result.ContentionFree, hex.EncodeToString(sum[:]))
	}
	for i, lv := range d.Levels() {
		level(levelName(i, len(d.Chiplets)), lv)
	}
	var db bytes.Buffer
	if err := SaveDesign(&db, d); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(db.Bytes())
	fmt.Fprintf(&b, "composite sha256 %s\n", hex.EncodeToString(sum[:]))
	return b.String()
}

// TestGoldenHierDesigns pins the full two-level synthesis output for the
// acceptance workloads at four clusters against committed summaries, and
// checks the end-to-end bar on every run: the flattened two-level design
// must finish the trace no later than a mesh-of-meshes on the same
// clustering. Regenerate with
// `go test ./internal/hier -run TestGoldenHierDesigns -update`.
func TestGoldenHierDesigns(t *testing.T) {
	for _, cell := range goldenCells {
		t.Run(cell.benchmark, func(t *testing.T) {
			pat := cell.pat(t)
			spec, err := ParseSpec("flow:4")
			if err != nil {
				t.Fatal(err)
			}
			opt := hierOptions(0)
			opt.Spec = spec
			d, err := Synthesize(pat, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenSummary(t, d)
			path := filepath.Join("testdata", cell.benchmark+".c4.golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
			} else {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("reading golden (regenerate with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("two-level design drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			}

			// End-to-end: flatten and replay against the mesh-of-meshes
			// baseline built on the identical clustering and delays.
			twoRes, _, err := Simulate(d, pat, flitsim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if twoRes.ExecCycles != cell.execCycles || twoRes.FlitHops != cell.flitHops {
				t.Errorf("replay drifted: %d cycles / %d flit hops, pinned %d / %d",
					twoRes.ExecCycles, twoRes.FlitHops, cell.execCycles, cell.flitHops)
			}
			mom, err := MeshOfMeshes(pat, d.Assign, d.GatewayWidth, d.NoILinkDelay)
			if err != nil {
				t.Fatal(err)
			}
			momRes, _, err := Simulate(mom, pat, flitsim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if twoRes.ExecCycles > momRes.ExecCycles {
				t.Errorf("two-level exec %d cycles > mesh-of-meshes %d",
					twoRes.ExecCycles, momRes.ExecCycles)
			}
		})
	}
}

// TestGoldenHierRoundTrip pins the design codec: SaveDesign → LoadDesign →
// SaveDesign must be byte-identical, and the loaded design must flatten to
// the same simulated execution as the in-memory original.
func TestGoldenHierRoundTrip(t *testing.T) {
	pat := cg16(t)
	spec, _ := ParseSpec("flow:4")
	opt := hierOptions(0)
	opt.Spec = spec
	d, err := Synthesize(pat, opt)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := SaveDesign(&first, d); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDesign(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := SaveDesign(&second, d2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("save → load → save is not a fixed point")
	}
	// Levels is chiplet 0 … 3 then the NoI, and the loaded design keeps that
	// order and count level for level.
	levels, loaded := d.Levels(), d2.Levels()
	if len(levels) != 5 || len(loaded) != len(levels) {
		t.Fatalf("Levels: %d in memory, %d loaded, want 5", len(levels), len(loaded))
	}
	for i, lv := range levels {
		want := pat.Name + ".noi"
		if i < 4 {
			want = fmt.Sprintf("%s.c%d", pat.Name, i)
		}
		if lv.Pattern.Name != want {
			t.Errorf("level %d is %s, want %s", i, lv.Pattern.Name, want)
		}
		var a, b bytes.Buffer
		if err := synth.SaveDesign(&a, lv.Net, lv.Table); err != nil {
			t.Fatal(err)
		}
		if err := synth.SaveDesign(&b, loaded[i].Net, loaded[i].Table); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("loaded level %d differs from level %d in memory", i, i)
		}
	}
	a, _, err := Simulate(d, pat, flitsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Simulate(d2, pat, flitsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles {
		t.Errorf("loaded design simulates to %d cycles, original %d", b.ExecCycles, a.ExecCycles)
	}
}

// TestGoldenFilesComplete fails when testdata carries golden files for cells
// no longer in the suite (the fuzz corpus directory is exempt).
func TestGoldenFilesComplete(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	expected := make(map[string]bool)
	for _, cell := range goldenCells {
		expected[cell.benchmark+".c4.golden"] = true
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() == "fuzz" {
			continue
		}
		if !expected[e.Name()] {
			t.Errorf("stale golden file testdata/%s", e.Name())
		}
		delete(expected, e.Name())
	}
	for name := range expected {
		t.Errorf("missing golden file testdata/%s", name)
	}
}

// TestDesignConstraintsMet holds Design.ConstraintsMet to the per-level
// verdicts on the CG.16 golden design, whose four chiplets meet their budgets
// and whose NoI does not — the verdict netgen -clusters used to leave out.
func TestDesignConstraintsMet(t *testing.T) {
	spec, _ := ParseSpec("flow:4")
	opt := hierOptions(0)
	opt.Spec = spec
	d, err := Synthesize(cg16(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range d.Chiplets {
		if !lv.Result.ConstraintsMet {
			t.Fatal("a CG.16 chiplet misses its budget: the cases below assume all four meet it")
		}
	}
	// with returns a copy of base whose level i (len(Chiplets) = the NoI) has
	// the given verdict, or no synthesis result at all when res is false.
	with := func(base *Design, i int, met, res bool) *Design {
		c := *base
		c.Chiplets = append([]*Level(nil), base.Chiplets...)
		lv := *base.NoI
		if i < len(c.Chiplets) {
			lv = *c.Chiplets[i]
		}
		if r := *lv.Result; res {
			r.ConstraintsMet = met
			lv.Result = &r
		} else {
			lv.Result = nil
		}
		if i < len(c.Chiplets) {
			c.Chiplets[i] = &lv
		} else {
			c.NoI = &lv
		}
		return &c
	}
	allMet := with(d, 4, true, true)
	noNoI := *with(d, 2, false, true)
	noNoI.NoI = nil
	for _, tc := range []struct {
		name string
		d    *Design
		want bool
	}{
		{"as synthesized: the NoI is over its degree budget", d, false},
		{"every level met", allMet, true},
		{"one chiplet unmet", with(allMet, 2, false, true), false},
		{"a chiplet and the NoI unmet", with(d, 2, false, true), false},
		{"a baseline chiplet has no verdict", with(allMet, 0, true, false), false},
		{"a baseline NoI has no verdict", with(allMet, 4, true, false), false},
		{"single level, all met", &Design{Chiplets: allMet.Chiplets}, true},
		{"single level, one unmet", &noNoI, false},
	} {
		if got := tc.d.ConstraintsMet(); got != tc.want {
			t.Errorf("%s: ConstraintsMet() = %v, want %v", tc.name, got, tc.want)
		}
	}
	// ExactColoring folds the levels' certificates the same way.
	exact := true
	for _, lv := range d.Levels() {
		exact = exact && lv.Result.ExactColoring
	}
	if got := d.ExactColoring(); got != exact {
		t.Errorf("ExactColoring() = %v, the levels' certificates fold to %v", got, exact)
	}
	if with(allMet, 0, true, false).ExactColoring() {
		t.Error("ExactColoring() with a baseline chiplet = true, want false")
	}
}
