package synth_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
)

// annealFlips are the flows whose drop-one-flow runs of BT/9 and SP/9 (the
// two benchmarks have the same list) change their ConstraintsMet verdict
// between the default greedy schedule and annealed, at MaxDegree 4 with
// MaxProcsPerSwitch 3 and 2. Over the 1,134 runs of EXPERIMENTS.md's cold
// matrix these 34 are every flip: annealed wins 22 and loses 12.
var annealFlips = []struct {
	maxProcs int
	drops    []model.Flow
}{
	{3, []model.Flow{model.F(0, 2), model.F(2, 3), model.F(2, 5), model.F(3, 2), model.F(3, 4), model.F(3, 6), model.F(3, 7), model.F(4, 1)}},
	{2, []model.Flow{model.F(0, 2), model.F(0, 6), model.F(1, 0), model.F(2, 3), model.F(2, 5), model.F(3, 0), model.F(3, 2), model.F(3, 6), model.F(4, 1)}},
}

// phaseWitnesses are one cold-matrix run per synthesis call site whose stub
// (`if false`) moves a cold verdict: the verdict of each is decided by that
// call site. A nil drop runs the whole pattern; maxProcs 0 runs the default
// constraints, otherwise MaxDegree is 4.
var phaseWitnesses = []struct {
	site     string
	bench    string
	procs    int
	drop     *model.Flow
	maxProcs int
}{
	{"globalRefine-bestRoute", "BT", 9, nil, 3},
	{"globalRefine-eliminatePipes", "BT", 9, &model.Flow{Src: 2, Dst: 8}, 3},
	{"globalRefine-relocation", "MG", 16, &model.Flow{Src: 2, Dst: 10}, 3},
	{"backboneReroute", "BT", 9, &model.Flow{Src: 1, Dst: 2}, 3},
	{"rerouteAnneal", "BT", 9, &model.Flow{Src: 0, Dst: 3}, 3},
	{"mergeRefine-eliminatePipes", "tree-broadcast", 16, &model.Flow{Src: 0, Dst: 1}, 0},
	{"split-bestRoute", "BT", 9, &model.Flow{Src: 1, Dst: 5}, 2},
	{"greedyMove-bestRoute", "SP", 9, &model.Flow{Src: 2, Dst: 8}, 2},
}

// verdictRun is one run of the verdict corpus.
type verdictRun struct {
	label string // the schedule or the witnessed call site
	pat   *model.Pattern
	drop  string // "whole", or the dropped flow
	opt   synth.Options
}

// verdictRuns are the verdict corpus: every annealFlips run under both
// schedules and every phaseWitnesses run under the default one, all with
// Iterations 1, Seed 9 and Restarts 2.
func verdictRuns(t *testing.T) []verdictRun {
	t.Helper()
	gen := func(bench string, procs int) *model.Pattern {
		t.Helper()
		p, err := nas.Generate(bench, procs, nas.Config{Iterations: 1})
		if err != nil {
			p, err = collective.Generate(bench, procs, collective.Config{})
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var runs []verdictRun
	add := func(label string, p *model.Pattern, drop *model.Flow, maxProcs int, v synth.Variant) {
		name, c := "whole", synth.Constraints{}
		if drop != nil {
			name = fmt.Sprintf("-%d→%d", drop.Src, drop.Dst)
			p = synth.WithoutFlow(p, *drop)
		}
		if maxProcs > 0 {
			c = synth.Constraints{MaxDegree: 4, MaxProcsPerSwitch: maxProcs}
		}
		runs = append(runs, verdictRun{label, p, name, synth.Options{Seed: 9, Restarts: 2, Workers: 2, Constraints: c, Variant: v}})
	}
	for _, bench := range []string{"BT", "SP"} {
		p := gen(bench, 9)
		for _, set := range annealFlips {
			for _, drop := range set.drops {
				add("greedy", p, &drop, set.maxProcs, synth.Full)
				add("annealed", p, &drop, set.maxProcs, synth.Annealed)
			}
		}
	}
	for _, w := range phaseWitnesses {
		add(w.site, gen(w.bench, w.procs), w.drop, w.maxProcs, synth.Full)
	}
	return runs
}

// TestVerdictCorpus pins (ConstraintsMet, switches, links) on runs whose
// verdict a single synthesis phase decides, which the golden designs never
// show: no golden row moves a verdict. It holds every verdictRuns run, so
// stubbing annealMoves or any witnessed call site fails it. Regenerate
// testdata/verdicts.golden with
// `go test ./internal/synth -run TestVerdictCorpus -update`, and say which
// verdicts moved and why.
func TestVerdictCorpus(t *testing.T) {
	var got strings.Builder
	for _, r := range verdictRuns(t) {
		res, err := synth.Synthesize(r.pat, r.opt)
		if err != nil {
			t.Fatalf("%s %s/%s: %v", r.label, r.pat.Name, r.drop, err)
		}
		c := r.opt.Constraints
		fmt.Fprintf(&got, "%s %s/%s/{%d,%d} met=%v switches=%d links=%d\n", r.label, r.pat.Name, r.drop,
			c.MaxDegree, c.MaxProcsPerSwitch, res.ConstraintsMet, res.Net.NumSwitches(), res.Net.TotalLinks())
	}

	path := filepath.Join("testdata", "verdicts.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("corpus has %d runs, golden %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got    %s\ngolden %s", gotLines[i], wantLines[i])
		}
	}
}
