package synth

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
)

// quickNASConfig mirrors harness.Quick()'s workload scale (the harness
// package cannot be imported here without a cycle).
func quickNASConfig() nas.Config { return nas.Config{Iterations: 1, ByteScale: 0.25} }

// designBytes serializes a result's full design — topology, pipe widths,
// source routes with per-hop link assignments — so two results can be
// compared for byte identity.
func designBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveDesign(&buf, res.Net, res.Table); err != nil {
		t.Fatalf("SaveDesign: %v", err)
	}
	return buf.Bytes()
}

// TestDeterminismSerialVsParallel is the race-proofing contract of the
// restart fan-out: for every NAS pattern at quick scale, Workers:1 and
// Workers:8 with the same seed must return byte-identical designs
// (topology, routes, pipe widths) and identical verdicts.
func TestDeterminismSerialVsParallel(t *testing.T) {
	for _, name := range nas.Names() {
		small, _ := nas.PaperProcs(name)
		pat, err := nas.Generate(name, small, quickNASConfig())
		if err != nil {
			t.Fatal(err)
		}
		serial := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2, Workers: 1})
		par := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2, Workers: 8})
		if got, want := designBytes(t, par), designBytes(t, serial); !bytes.Equal(got, want) {
			t.Errorf("%s: Workers:8 design differs from Workers:1\nserial:\n%s\nparallel:\n%s", name, want, got)
		}
		if serial.ConstraintsMet != par.ConstraintsMet || serial.ContentionFree != par.ContentionFree {
			t.Errorf("%s: verdicts differ: serial met=%v free=%v, parallel met=%v free=%v",
				name, serial.ConstraintsMet, serial.ContentionFree, par.ConstraintsMet, par.ContentionFree)
		}
		if serial.Stats.RestartsRun != par.Stats.RestartsRun {
			t.Errorf("%s: RestartsRun differs: serial %d, parallel %d",
				name, serial.Stats.RestartsRun, par.Stats.RestartsRun)
		}
	}
}

// TestDeterminismParallelSelfIdentical re-runs the parallel path several
// times on each pattern: completion order varies across runs, the reduced
// winner must not.
func TestDeterminismParallelSelfIdentical(t *testing.T) {
	for _, name := range nas.Names() {
		small, _ := nas.PaperProcs(name)
		pat, err := nas.Generate(name, small, quickNASConfig())
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		for rep := 0; rep < 3; rep++ {
			res := synthOrDie(t, pat, Options{Seed: 5, Restarts: 4, Workers: 8})
			b := designBytes(t, res)
			if rep == 0 {
				first = b
			} else if !bytes.Equal(b, first) {
				t.Fatalf("%s: parallel run %d differs from run 0", name, rep)
			}
		}
	}
}

// TestDeterminismContextPlumbing guards the context plumbing: a live
// (never-cancelled) context must be output-inert. For every NAS pattern,
// Synthesize and SynthesizeCliques with a non-nil context — plain,
// cancellable, and deadline-bearing — must return byte-identical designs.
// The cancellation checks read ctx.Err() only; if one ever perturbs the RNG
// stream or an iteration order, this test catches it.
func TestDeterminismContextPlumbing(t *testing.T) {
	for _, name := range nas.Names() {
		small, _ := nas.PaperProcs(name)
		pat, err := nas.Generate(name, small, quickNASConfig())
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Seed: 3, Restarts: 2, Workers: 4}
		want := designBytes(t, synthOrDie(t, pat, opt))

		cancelCtx, cancel := context.WithCancel(context.Background())
		defer cancel()
		deadlineCtx, cancel2 := context.WithTimeout(context.Background(), time.Hour)
		defer cancel2()
		for label, ctx := range map[string]context.Context{
			"background": context.Background(),
			"cancelable": cancelCtx,
			"deadline":   deadlineCtx,
		} {
			res, err := SynthesizeCliques(ctx, pat, model.MaxCliqueSet(pat), opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			if got := designBytes(t, res); !bytes.Equal(got, want) {
				t.Errorf("%s: %s context changed the design bytes", name, label)
			}
		}
	}
}

// TestDeterminismSynthesizeCliques: SynthesizeCliques on the pattern's own
// maximum clique set is Synthesize, byte for byte; and the cliques it is
// given are the only contention model it reads — the same pattern with every
// message moved onto one instant (one clique of all flows, were it derived
// afresh) still yields the original design.
func TestDeterminismSynthesizeCliques(t *testing.T) {
	for _, name := range nas.Names() {
		small, _ := nas.PaperProcs(name)
		pat, err := nas.Generate(name, small, quickNASConfig())
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Seed: 3, Restarts: 2, Workers: 2}
		want := designBytes(t, synthOrDie(t, pat, opt))
		cliques := model.MaxCliqueSet(pat)
		flat := *pat
		flat.Messages = append([]model.Message(nil), pat.Messages...)
		for i := range flat.Messages {
			flat.Messages[i].Start, flat.Messages[i].Finish = 0, 1
		}
		for label, p := range map[string]*model.Pattern{"own": pat, "flattened": &flat} {
			res, err := SynthesizeCliques(context.Background(), p, cliques, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			if got := designBytes(t, res); !bytes.Equal(got, want) {
				t.Errorf("%s: SynthesizeCliques on the %s pattern changed the design bytes", name, label)
			}
		}
	}
}

// mustModel builds p's Model from its own maximum clique set.
func mustModel(t testing.TB, p *model.Pattern) *Model {
	t.Helper()
	m, err := NewModel(p, model.MaxCliqueSet(p))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSynthesizeModelShared: one Model serves every synthesis of its
// pattern. Runs on one Model under different seeds, constraints, restart
// counts and a seed design, all at once, each return the bytes, Stats and
// counters of SynthesizeCliques on the pattern alone; and a Model is
// validated once, by NewModel, with SynthesizeCliques' error.
func TestSynthesizeModelShared(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := synthOrDie(t, pat, Options{Seed: 1, Restarts: 2})
	opts := []Options{
		{Seed: 1, Restarts: 2},
		{Seed: 5, Restarts: 3, Workers: 2},
		{Seed: 2, Constraints: Constraints{MaxDegree: 6}},
		{Seed: 9, Restarts: 2, SeedDesign: SeedFromDesign(base.Net, base.Table)},
	}
	type out struct {
		design   []byte
		stats    Stats
		counters map[string]int64
	}
	run := func(o Options, synth func(Options) (*Result, error)) out {
		col := obs.NewCollector()
		o.Obs = col
		res, err := synth(o)
		if err != nil {
			t.Error(err)
			return out{}
		}
		var buf bytes.Buffer
		if err := SaveDesign(&buf, res.Net, res.Table); err != nil {
			t.Error(err)
		}
		return out{buf.Bytes(), res.Stats, col.Counters()}
	}
	m := mustModel(t, pat)
	got := make([]out, len(opts))
	done := make(chan struct{})
	for i, o := range opts {
		go func() {
			defer func() { done <- struct{}{} }()
			got[i] = run(o, func(o Options) (*Result, error) { return SynthesizeModel(context.Background(), m, o) })
		}()
	}
	for range opts {
		<-done
	}
	for i, o := range opts {
		want := run(o, func(o Options) (*Result, error) {
			return SynthesizeCliques(context.Background(), pat, model.MaxCliqueSet(pat), o)
		})
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("options %d: a shared Model's synthesis differs from SynthesizeCliques'", i)
		}
	}

	bad := *pat
	bad.Procs = 0
	_, wantErr := SynthesizeCliques(context.Background(), &bad, model.MaxCliqueSet(pat), Options{})
	if _, err := NewModel(&bad, model.MaxCliqueSet(pat)); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Errorf("NewModel on an invalid pattern: %v, SynthesizeCliques: %v", err, wantErr)
	}
}

// TestDeterminismWorkerCountSweep pins the invariant across intermediate
// worker counts, including counts exceeding the restart count: the design
// bytes, the winner's Stats and every counter. In the BT/9 case no configured
// restart meets the constraints and the first extension restart that does is
// index 8, five past the configured three: no multiple of 2, 3 or 8, so at
// those worker counts it is not the first of a round of workers, and
// restarts 9 to 11 start or are skipped behind it depending on timing.
func TestDeterminismWorkerCountSweep(t *testing.T) {
	cg16, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	bt9, err := nas.Generate("BT", 9, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pat *model.Pattern
		opt Options
		// run is Stats.RestartsRun: the configured restarts when one of
		// them meets the constraints, else one past the first that does.
		run int
	}{
		{cg16, Options{Seed: 2, Restarts: 3}, 3},
		{bt9, Options{Seed: 6, Restarts: 3, Constraints: Constraints{MaxDegree: 4, MaxProcsPerSwitch: 2}}, 9},
	} {
		run := func(w int) (*Result, map[string]int64) {
			col := obs.NewCollector()
			opt := c.opt
			opt.Workers, opt.Obs = w, col
			return synthOrDie(t, c.pat, opt), col.Counters()
		}
		want, wantCounters := run(1)
		if !want.ConstraintsMet || want.Stats.RestartsRun != c.run {
			t.Fatalf("%s: met %v after %d restarts, want met after %d", c.pat.Name, want.ConstraintsMet, want.Stats.RestartsRun, c.run)
		}
		for _, w := range []int{0, 2, 3, 5, 8, 16} {
			got, counters := run(w)
			if !bytes.Equal(designBytes(t, got), designBytes(t, want)) {
				t.Errorf("%s Workers:%d design differs from Workers:1", c.pat.Name, w)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("%s Workers:%d Stats %+v, Workers:1 %+v", c.pat.Name, w, got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(counters, wantCounters) {
				t.Errorf("%s Workers:%d counters %v, Workers:1 %v", c.pat.Name, w, counters, wantCounters)
			}
		}
	}
}
