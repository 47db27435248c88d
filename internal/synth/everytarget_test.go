package synth_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/synth"
)

// everyTarget synthesizes p with every candidate priced: each dead
// relocation target and pipe intermediate, as the scans did before dead
// switches were priced once, and each candidate whose floor already loses.
// It returns the winner and the summed counters.
func everyTarget(t *testing.T, p *model.Pattern, opt synth.Options) (*synth.Result, map[string]int64) {
	t.Helper()
	synth.PriceEveryTarget(true)
	defer synth.PriceEveryTarget(false)
	return synthCounted(t, p, opt)
}

// synthCounted synthesizes p and returns the winner and the summed counters
// of every restart.
func synthCounted(t *testing.T, p *model.Pattern, opt synth.Options) (*synth.Result, map[string]int64) {
	t.Helper()
	col := obs.NewCollector()
	opt.Obs = col
	res, err := synth.Synthesize(p, opt)
	if err != nil {
		t.Fatalf("Synthesize(%s): %v", p.Name, err)
	}
	return res, col.Counters()
}

// noiLevels are the NoI sub-patterns hier synthesizes for the three hier
// classes the server benchmark requests: CG/16 and FFT/16 under four
// clusters and ring-allreduce/64 under eight. None meets its degree budget,
// so every restart runs all its rounds.
func noiLevels(t *testing.T) []*model.Pattern {
	t.Helper()
	cg16, err := nas.Generate("CG", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fft16, err := nas.Generate("FFT", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ring64, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var levels []*model.Pattern
	for _, c := range []struct {
		pat      *model.Pattern
		clusters string
	}{{cg16, "4"}, {fft16, "4"}, {ring64, "8"}} {
		spec, err := hier.ParseSpec(c.clusters)
		if err != nil {
			t.Fatal(err)
		}
		assign, err := hier.Partition(c.pat, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		split, err := hier.SplitPattern(c.pat, assign)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, split.NoI)
	}
	return levels
}

// TestDeadTwinsMatchEveryTarget holds both shortcuts of the candidate scans
// — one dead switch priced for all, and no candidate priced whose floor
// already loses — to everyTarget: the same design byte for byte, the same
// winner Stats (MovesEvaluated included, whose skipped ticks are added in
// closed form) and the same summed counters. It runs the NoI levels of the
// three hier classes the server benchmark requests, where the NoI loop leaves
// most switch indices dead, at seeds 1–8 under the server's constraints, and
// the 63 runs of the golden corpus. The shortcut side alternates between 1
// and 8 workers, so the counters are held across worker counts as well.
func TestDeadTwinsMatchEveryTarget(t *testing.T) {
	type run struct {
		name string
		pat  *model.Pattern
		opt  synth.Options
	}
	var runs []run
	for _, noi := range noiLevels(t) {
		for seed := int64(1); seed <= 8; seed++ {
			runs = append(runs, run{noi.Name, noi, synth.Options{Seed: seed, Workers: 2}})
		}
	}
	for _, p := range goldenWorkloads(t) {
		for _, v := range goldenVariants {
			runs = append(runs, run{p.Name + "/" + v.name, p, v.opt})
		}
		base, err := synth.Synthesize(p, goldenVariants[0].opt)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{p.Name + "/seeded", p, synth.Options{Seed: 9, Restarts: 2, Workers: 2,
			SeedDesign:  synth.SeedFromDesign(base.Net, base.Table),
			Constraints: synth.Constraints{MaxDegree: 4, MaxProcsPerSwitch: 3}}})
	}
	if len(runs) != 24+63 {
		t.Fatalf("%d runs, want 24 NoI runs and the 63 golden ones", len(runs))
	}
	for i, r := range runs {
		want, wantCounts := everyTarget(t, r.pat, r.opt)
		opt := r.opt
		opt.Workers = []int{1, 8}[i%2]
		got, gotCounts := synthCounted(t, r.pat, opt)
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
			t.Errorf("%s seed %d: design differs from pricing every target", r.name, r.opt.Seed)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s seed %d: winner Stats %+v, want %+v", r.name, r.opt.Seed, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Errorf("%s seed %d: counters %v, want %v", r.name, r.opt.Seed, gotCounts, wantCounts)
		}
	}
}

func saveBytes(t *testing.T, res *synth.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := synth.SaveDesign(&buf, res.Net, res.Table); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
