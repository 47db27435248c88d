package synth

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/topology"
	"repro/internal/trace"
)

func synthOrDie(t *testing.T, p *model.Pattern, opt Options) *Result {
	t.Helper()
	res, err := Synthesize(p, opt)
	if err != nil {
		t.Fatalf("Synthesize(%s): %v", p.Name, err)
	}
	return res
}

func TestSynthesizeFigure1(t *testing.T) {
	p := nas.Figure1Pattern()
	res := synthOrDie(t, p, Options{Seed: 1})
	if !res.ConstraintsMet {
		t.Fatalf("constraints not met: max degree %d", res.Net.MaxDegree())
	}
	if res.Net.MaxDegree() > 5 {
		t.Fatalf("degree constraint violated: %d", res.Net.MaxDegree())
	}
	if !res.ContentionFree {
		t.Fatalf("generated network not contention-free: %v", res.Witnesses)
	}
	// Section 3.4: the generated network requires far fewer resources
	// than a 4x4 mesh (24 links, 16 switches).
	mesh, _ := topology.Mesh(4, 4)
	if res.Net.TotalLinks() >= mesh.TotalLinks() {
		t.Errorf("generated links %d not below mesh %d", res.Net.TotalLinks(), mesh.TotalLinks())
	}
	if res.Net.NumSwitches() >= mesh.NumSwitches() {
		t.Errorf("generated switches %d not below mesh %d", res.Net.NumSwitches(), mesh.NumSwitches())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p := nas.Figure1Pattern()
	a := synthOrDie(t, p, Options{Seed: 3})
	b := synthOrDie(t, p, Options{Seed: 3})
	if a.Net.NumSwitches() != b.Net.NumSwitches() || a.Net.TotalLinks() != b.Net.TotalLinks() {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d switches/links",
			a.Net.NumSwitches(), a.Net.TotalLinks(), b.Net.NumSwitches(), b.Net.TotalLinks())
	}
	for p0 := 0; p0 < p.Procs; p0++ {
		if a.Net.Home[p0] != b.Net.Home[p0] {
			t.Fatalf("placement differs at proc %d", p0)
		}
	}
}

func TestSynthesizeAllBenchmarksContentionFree(t *testing.T) {
	for _, name := range nas.Names() {
		small, large := nas.PaperProcs(name)
		for _, procs := range []int{small, large} {
			pat, err := nas.Generate(name, procs, nas.Config{Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			res := synthOrDie(t, pat, Options{Seed: 7, Restarts: 2})
			if err := res.Net.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", name, procs, err)
			}
			if err := res.Table.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", name, procs, err)
			}
			if !res.ConstraintsMet {
				t.Errorf("%s/%d: constraints unmet (max degree %d)", name, procs, res.Net.MaxDegree())
			}
			if !res.ContentionFree {
				t.Errorf("%s/%d: not contention-free: %d witnesses", name, procs, len(res.Witnesses))
			}
		}
	}
}

func TestSynthesizeRespectsDegreeConstraint(t *testing.T) {
	pat, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, deg := range []int{4, 5, 6, 8} {
		res := synthOrDie(t, pat, Options{Seed: 5, Constraints: Constraints{MaxDegree: deg, MaxProcsPerSwitch: 4}})
		if !res.ConstraintsMet {
			t.Errorf("degree %d: constraints unmet", deg)
			continue
		}
		if got := res.Net.MaxDegree(); got > deg {
			t.Errorf("degree %d: max degree %d", deg, got)
		}
	}
}

func TestSynthesizeMaxProcsPerSwitch(t *testing.T) {
	pat := nas.Figure1Pattern()
	res := synthOrDie(t, pat, Options{Seed: 2, Constraints: Constraints{MaxDegree: 6, MaxProcsPerSwitch: 2}})
	if !res.ConstraintsMet {
		t.Fatal("constraints unmet")
	}
	for _, sw := range res.Net.Switches {
		if len(sw.Procs) > 2 {
			t.Fatalf("switch %d has %d procs", sw.ID, len(sw.Procs))
		}
	}
}

func TestSynthesizeTrivialPatternStaysCrossbar(t *testing.T) {
	// Four processors, one tiny phase: the megaswitch already satisfies
	// degree <= 5, so no partitioning should happen.
	p := trace.BuildPhased("tiny", 4, []trace.PhaseSpec{
		{Label: "x", Flows: []model.Flow{model.F(0, 1), model.F(2, 3)}, Bytes: 64},
	})
	res := synthOrDie(t, p, Options{Seed: 1})
	if res.Net.NumSwitches() != 1 || res.Net.TotalLinks() != 0 {
		t.Fatalf("trivial pattern: %d switches, %d links", res.Net.NumSwitches(), res.Net.TotalLinks())
	}
	if !res.ContentionFree || !res.ConstraintsMet {
		t.Fatal("trivial crossbar must be contention-free and legal")
	}
	if res.Stats.Splits != 0 {
		t.Fatalf("unexpected splits: %d", res.Stats.Splits)
	}
}

func TestSynthesizeNoCommunication(t *testing.T) {
	// Processors that never talk: still must produce a valid, connected
	// network respecting constraints.
	p := &model.Pattern{Name: "silent", Procs: 12}
	res := synthOrDie(t, p, Options{Seed: 1})
	if err := res.Net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.ConstraintsMet {
		t.Fatalf("constraints unmet: max degree %d", res.Net.MaxDegree())
	}
	if res.Stats.Repairs == 0 {
		t.Error("expected connectivity repairs for a silent pattern")
	}
}

// TestSynthesizeIgnoresSelfMessages holds the engine's assumption that no
// flow joins a processor to itself (model.NewFlowIndex drops them): a pattern
// with a self-message beside every message, overlapping it, synthesizes to
// the same design bytes as the pattern without them.
func TestSynthesizeIgnoresSelfMessages(t *testing.T) {
	pats := []*model.Pattern{nas.Figure1Pattern()}
	for _, name := range []string{"CG", "BT"} {
		pat, err := nas.Generate(name, 16, quickNASConfig())
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, pat)
	}
	for _, pat := range pats {
		selfish := *pat
		selfish.Messages = slices.Clone(pat.Messages)
		for i, m := range pat.Messages {
			m.ID = len(pat.Messages) + i
			m.Dst = m.Src
			if i%2 == 1 {
				m.Src, m.Dst = pat.Messages[i].Dst, pat.Messages[i].Dst
			}
			selfish.Messages = append(selfish.Messages, m)
		}
		opt := Options{Seed: 1, Restarts: 2}
		want := designBytes(t, synthOrDie(t, pat, opt))
		if got := designBytes(t, synthOrDie(t, &selfish, opt)); !bytes.Equal(got, want) {
			t.Errorf("%s: self-messages changed the design\nwithout:\n%s\nwith:\n%s", pat.Name, want, got)
		}
	}
}

func TestSynthesizeRoutesMatchPattern(t *testing.T) {
	pat, err := nas.Generate("FFT", 8, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := synthOrDie(t, pat, Options{Seed: 9})
	for _, f := range pat.Flows() {
		r, ok := res.Table.Routes[f]
		if !ok {
			t.Fatalf("flow %v has no route", f)
		}
		if r.Switches[0] != res.Net.Home[f.Src] {
			t.Fatalf("flow %v route starts off-home", f)
		}
	}
}

func TestSynthesizeResourcesBelowMesh(t *testing.T) {
	// The headline claim direction: generated networks use fewer switches
	// and links than the mesh for the paper's benchmarks.
	for _, name := range []string{"CG", "FFT", "MG"} {
		pat, err := nas.Generate(name, 16, nas.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		res := synthOrDie(t, pat, Options{Seed: 11, Restarts: 3})
		mesh, _ := topology.Mesh(4, 4)
		if res.Net.NumSwitches() > mesh.NumSwitches() {
			t.Errorf("%s: %d switches vs mesh %d", name, res.Net.NumSwitches(), mesh.NumSwitches())
		}
		if res.Net.TotalLinks() > mesh.TotalLinks() {
			t.Errorf("%s: %d links vs mesh %d", name, res.Net.TotalLinks(), mesh.TotalLinks())
		}
	}
}

func TestAnnealedModeStillValid(t *testing.T) {
	pat := nas.Figure1Pattern()
	res := synthOrDie(t, pat, Options{Seed: 4, Variant: Annealed})
	if !res.ConstraintsMet || !res.ContentionFree {
		t.Fatalf("annealed synthesis invalid: met=%v free=%v", res.ConstraintsMet, res.ContentionFree)
	}
}

func TestDisableBestRouteAblation(t *testing.T) {
	pat, err := nas.Generate("BT", 9, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	with := synthOrDie(t, pat, Options{Seed: 6, Restarts: 2})
	without := synthOrDie(t, pat, Options{Seed: 6, Restarts: 2, Variant: NoBestRoute})
	// Both configurations must still produce valid, contention-free
	// networks; the quality comparison itself is benchmarked (see
	// BenchmarkAblationBestRoute), not asserted, because the two searches
	// explore different trajectories.
	if !with.ContentionFree || !without.ContentionFree {
		t.Fatal("ablation broke contention freedom")
	}
	t.Logf("links with Best_Route: %d, without: %d", with.Net.TotalLinks(), without.Net.TotalLinks())
}

func TestSynthesizeRejectsInvalidPattern(t *testing.T) {
	for _, tc := range []struct {
		name string
		pat  *model.Pattern
		opt  Options
		want string
	}{
		{"no processors", &model.Pattern{Name: "bad", Procs: 0}, Options{}, "synth: "},
		{"negative restarts", nas.Figure1Pattern(), Options{Restarts: -1}, "synth: negative Restarts -1"},
		{"negative degree", nas.Figure1Pattern(), Options{Constraints: Constraints{MaxDegree: -1}}, "synth: negative MaxDegree -1"},
		{"negative processors", nas.Figure1Pattern(), Options{Constraints: Constraints{MaxProcsPerSwitch: -2}}, "or MaxProcsPerSwitch -2"},
		{"unknown variant", nas.Figure1Pattern(), Options{Variant: Annealed + 1}, "synth: unknown Variant 4"},
	} {
		_, err := Synthesize(tc.pat, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	pat := nas.Figure1Pattern()
	res := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2})
	if res.Stats.Splits == 0 {
		t.Error("no splits recorded")
	}
	if res.Stats.RestartsRun != 2 {
		t.Errorf("RestartsRun = %d", res.Stats.RestartsRun)
	}
	if res.Stats.Rounds == 0 {
		t.Error("no rounds recorded")
	}
}

// Cross-package property: for every benchmark, the generated routing's
// conflict set restricted to same-period flows is empty — i.e., Theorem 1
// holds by construction when finalization succeeds with exact coloring.
func TestTheoremOneByConstruction(t *testing.T) {
	for _, name := range nas.Names() {
		_, large := nas.PaperProcs(name)
		pat, err := nas.Generate(name, large, nas.Config{Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		res := synthOrDie(t, pat, Options{Seed: 13, Restarts: 1})
		if !res.ExactColoring {
			t.Logf("%s: a width is not certified minimal by a clique", name)
		}
		ix := model.NewFlowIndex(pat.Flows())
		c := model.ConflictMatrixFromCliques(ix, res.Cliques)
		free, wit := model.ContentionFreeBits(c, res.Table.ConflictMatrix(ix))
		if !free {
			t.Errorf("%s: %d C∩R witnesses, e.g. %v", name, len(wit), wit[0])
		}
	}
}
