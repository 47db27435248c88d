package synth_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
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

var update = flag.Bool("update", false, "rewrite testdata/designs.golden and testdata/verdicts.golden")

// goldenVariants are the option sets every corpus workload is synthesized
// under. The first four are the variants the retired full-run comparison
// against the reference move evaluator ran (default, annealed, DSATUR final
// colouring, no Best_Route; the third has been the Full method at its seed
// since DSATUR became the only final colouring, and its hashes held); the
// last two reach the paths those leave cold:
// partitioning without the global polish, and constraints tight enough that
// the violation-repair passes (eliminatePipes, rerouteAnneal) do real work.
// No corpus run lets backboneReroute commit; TestBackboneRerouteMeetsDegree
// pins the runs that do.
var goldenVariants = []struct {
	name string
	opt  synth.Options
}{
	{"default", synth.Options{Seed: 1, Restarts: 2, Workers: 2}},
	{"anneal", synth.Options{Seed: 2, Restarts: 2, Workers: 2, Variant: synth.Annealed}},
	{"seed3", synth.Options{Seed: 3, Restarts: 2, Workers: 2}},
	{"nobest", synth.Options{Seed: 4, Restarts: 2, Workers: 2, Variant: synth.NoBestRoute}},
	{"norefine", synth.Options{Seed: 5, Restarts: 2, Workers: 2, Variant: synth.NoGlobalRefine}},
	{"tight", synth.Options{Seed: 6, Restarts: 2, Workers: 2, Constraints: synth.Constraints{MaxDegree: 4, MaxProcsPerSwitch: 2}}},
}

// goldenWorkloads are the five NAS benchmarks and the four collectives at
// the paper's 16-processor size, one iteration each.
func goldenWorkloads(t *testing.T) []*model.Pattern {
	t.Helper()
	var pats []*model.Pattern
	for _, name := range nas.Names() {
		_, large := nas.PaperProcs(name)
		p, err := nas.Generate(name, large, nas.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	for _, name := range collective.Names() {
		_, large := collective.PaperNodes(name)
		p, err := collective.Generate(name, large, collective.Config{})
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	return pats
}

// goldenRun is one synthesis of the golden corpus, named as its row.
type goldenRun struct {
	name string
	res  *synth.Result
}

// goldenRuns synthesizes the golden corpus in its row order: per workload,
// one run per variant, then the run seeded from its default design.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	synthesize := func(p *model.Pattern, opt synth.Options) *synth.Result {
		res, err := synth.Synthesize(p, opt)
		if err != nil {
			t.Fatalf("Synthesize(%s): %v", p.Name, err)
		}
		return res
	}
	var runs []goldenRun
	for _, p := range goldenWorkloads(t) {
		var base *synth.Result
		for _, v := range goldenVariants {
			res := synthesize(p, v.opt)
			if v.name == "default" {
				base = res
			}
			runs = append(runs, goldenRun{p.Name + "/" + v.name, res})
		}
		sd := synth.SeedFromDesign(base.Net, base.Table)
		res := synthesize(p, synth.Options{Seed: 9, Restarts: 2, Workers: 2, SeedDesign: sd,
			Constraints: synth.Constraints{MaxDegree: 4, MaxProcsPerSwitch: 3}})
		runs = append(runs, goldenRun{p.Name + "/seeded", res})
	}
	return runs
}

// TestGoldenDesigns pins the SHA-256 of the SaveDesign bytes of 63 full
// synthesis runs: 9 workloads × 6 option variants, plus one run per workload
// warm-started from its own default design under tighter constraints (under
// the same constraints a seeded run just reproduces its seed; this way the
// replayed tree violates and the search resumes from it). The committed file
// was generated at the last commit that still compiled the reference move evaluator, with
// that evaluator forced on (and again with it off: the two files were
// identical), so it is the end-to-end half of the reference comparison whose
// probe-level half is TestMoveEngineRandomEquivalence. Only exported API is
// used, so the file runs unmodified on any older commit. Regenerate with
// `go test ./internal/synth -run TestGoldenDesigns -update` — and say why
// the bytes were allowed to move.
func TestGoldenDesigns(t *testing.T) {
	var got strings.Builder
	for _, run := range goldenRuns(t) {
		var buf bytes.Buffer
		if err := synth.SaveDesign(&buf, run.res.Net, run.res.Table); err != nil {
			t.Fatalf("SaveDesign(%s): %v", run.name, err)
		}
		fmt.Fprintf(&got, "%s %x\n", run.name, sha256.Sum256(buf.Bytes()))
	}
	path := filepath.Join("testdata", "designs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
	if len(wantLines) != 63 || len(gotLines) != 63 {
		t.Fatalf("corpus has %d rows, golden %d; want 63 each", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row %d: got %s, golden %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestBackbonePathsGolden holds shortestPaths (one search per source) to the
// per-flow search it replaced on the switch graph of every golden design:
// every ordered pair of switches, in a shuffled order with repeats.
func TestBackbonePathsGolden(t *testing.T) {
	for i, run := range goldenRuns(t) {
		net := run.res.Net
		adj := make([][]int, net.NumSwitches())
		for _, p := range net.Pipes {
			a, b := int(p.A), int(p.B)
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		if msg := synth.ShortestPathsMismatch(adj, int64(i)); msg != "" {
			t.Errorf("%s: %s", run.name, msg)
		}
	}
}
