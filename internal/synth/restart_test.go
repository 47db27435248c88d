package synth

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// everyRestart is the restart loop without sharing: every restart index is
// computed, serially, and folded in index order, extension restarts
// included. It returns what runRestarts returns, plus whether each folded
// restart drew.
func everyRestart(t *testing.T, p *model.Pattern, opt Options) (*Result, Stats, []bool) {
	t.Helper()
	opt = opt.Normalized()
	m := mustModel(t, p)
	var best *Result
	var totals Stats
	var drew []bool
	for run := 0; run < opt.Restarts || (!best.ConstraintsMet && run < 4*opt.Restarts); run++ {
		sd := opt.SeedDesign
		if run >= opt.Restarts {
			sd = nil
		}
		res, d, err := synthesizeOnce(context.Background(), m, opt, sd, opt.Seed+int64(run)*7919, nil)
		if err != nil {
			t.Fatal(err)
		}
		drew = append(drew, d)
		totals.Add(res.Stats)
		if better(res, best) {
			best = res
		}
	}
	best.Stats.RestartsRun = len(drew)
	totals.RestartsRun = len(drew)
	return best, totals, drew
}

// seededVariant seeds a structural twin of base (the same benchmark at
// another iteration count and payload scale) from base's own design, the
// way the server seeds a warm miss.
func seededVariant(t *testing.T, name string, procs int, cfg nas.Config) (*model.Pattern, *SeedDesign) {
	t.Helper()
	base, err := nas.Generate(name, procs, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := nas.Generate(name, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := synthOrDie(t, base, Options{Seed: 1})
	sd := SeedFromDesign(res.Net, res.Table)
	sd.ChangedProcs = trace.FingerprintPattern(v).ChangedSegments(trace.FingerprintPattern(base))
	return v, sd
}

// TestRestartSharingMatchesEveryRestart holds runRestarts to everyRestart:
// the same winner byte for byte, the same winner Stats and the same summed
// Stats at every worker count, whether or not any restart was shared. It
// also holds the premise sharing rests on: when a kind's first restart never
// draws, no restart of that kind draws, and runRestarts shares exactly the
// kind's other restarts.
func TestRestartSharingMatchesEveryRestart(t *testing.T) {
	ring4, err := collective.Generate("ring-allreduce", 4, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cg16, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	bt9, bt9Seed := seededVariant(t, "BT", 9, nas.Config{Iterations: 3})
	cg16v, cg16Seed := seededVariant(t, "CG", 16, nas.Config{Iterations: 2, ByteScale: 2})
	cgSeed := SeedFromDesign(synthOrDie(t, cg16, Options{Seed: 1, Restarts: 1}).Net, nil)
	tight := Constraints{MaxDegree: 2, MaxProcsPerSwitch: 1}
	for _, tc := range []struct {
		name   string
		pat    *model.Pattern
		opt    Options
		shared int
	}{
		// A warm miss: the seeded restarts replay a tree that meets the
		// constraints, so none of them draws and three of four are shared.
		{"seeded BT/9", bt9, Options{Seed: 1001, SeedDesign: bt9Seed}, 3},
		{"seeded CG/16", cg16v, Options{Seed: 7, Restarts: 3, SeedDesign: cg16Seed}, 2},
		// Four processors fit the megaswitch: a cold restart never splits.
		{"cold ring-allreduce/4", ring4, Options{Seed: 1}, 3},
		// Every cold CG/16 restart splits the megaswitch at once.
		{"cold CG/16", cg16, Options{Seed: 1}, 0},
		// Seeded restarts that split, then cold extension restarts.
		{"extension CG/16", cg16, Options{Seed: 1, Restarts: 2, SeedDesign: cgSeed, Constraints: tight}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantTotals, drew := everyRestart(t, tc.pat, tc.opt)
			opt := tc.opt.Normalized()
			leaderDrew := map[bool]bool{} // seeded -> the kind's first restart drew
			for i, d := range drew {
				seeded := opt.SeedDesign != nil && i < opt.Restarts
				if first, ok := leaderDrew[seeded]; !ok {
					leaderDrew[seeded] = d
				} else if !first && d {
					t.Fatalf("restart %d drew, but its kind's first restart did not", i)
				}
			}
			for _, w := range []int{1, 2, 8} {
				opt.Workers = w
				got, totals, shared, err := runRestarts(context.Background(), mustModel(t, tc.pat), opt)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(designBytes(t, got), designBytes(t, want)) {
					t.Errorf("Workers:%d: design differs from computing every restart", w)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("Workers:%d: winner Stats %+v, want %+v", w, got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(totals, wantTotals) {
					t.Errorf("Workers:%d: summed Stats %+v, want %+v", w, totals, wantTotals)
				}
				if shared != tc.shared {
					t.Errorf("Workers:%d: %d of %d restarts shared, want %d", w, shared, totals.RestartsRun, tc.shared)
				}
			}
		})
	}
}

// panicOnFirstRestart panics the first time a restart opens its span.
type panicOnFirstRestart struct{ fired bool }

func (*panicOnFirstRestart) Count(string, int64)           {}
func (*panicOnFirstRestart) SpanEnd(string, time.Duration) {}
func (*panicOnFirstRestart) Event(string, string)          {}

func (p *panicOnFirstRestart) SpanStart(name string) {
	if name == "synth.restart" && !p.fired {
		p.fired = true
		panic("injected restart panic")
	}
}

// TestRestartLeaderFailureReleasesFollowers: the restarts waiting on a
// kind's first restart are released when it fails instead of returning —
// by panic or by cancellation — so the run reports the failure rather than
// hanging.
func TestRestartLeaderFailureReleasesFollowers(t *testing.T) {
	pat, sd := seededVariant(t, "BT", 9, nas.Config{Iterations: 3})
	within := func(t *testing.T, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("synthesis hung: followers were never released")
		}
	}
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("panic/workers=%d", w), func(t *testing.T) {
			within(t, func() {
				defer func() {
					v := recover()
					if pa, ok := v.(*parallel.Panic); ok {
						v = pa.Value
					}
					if v != "injected restart panic" {
						t.Errorf("recovered %v, want the injected panic", v)
					}
				}()
				// The observer is unsynchronized: only the first restart
				// to open a span, the kind's leader, ever reaches it before
				// the others are released.
				Synthesize(pat, Options{Seed: 1, Workers: w, SeedDesign: sd, Obs: &panicOnFirstRestart{}})
			})
		})
		t.Run(fmt.Sprintf("cancel/workers=%d", w), func(t *testing.T) {
			within(t, func() {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				_, err := SynthesizeCliques(ctx, pat, model.MaxCliqueSet(pat),
					Options{Seed: 1, Workers: w, SeedDesign: sd, Obs: &cancelOnRestart{cancel: cancel}})
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			})
		})
	}
}

// TestDrawSourceStream: wrapping the source changes no draw of the stream
// the search uses, and the first draw — and only it — fires onFirst.
func TestDrawSourceStream(t *testing.T) {
	for _, seed := range []int64{1, 7920, -3} {
		fired := 0
		src := &drawSource{Source: rand.NewSource(seed), onFirst: func() { fired++ }}
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		if src.drew || fired != 0 {
			t.Fatal("drew before any draw")
		}
		a, b := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
		for i := 0; i < 50; i++ {
			if g, w := got.Intn(1+i), want.Intn(1+i); g != w {
				t.Fatalf("seed %d: Intn draw %d = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: Shuffle %d = %v, want %v", seed, i, a, b)
			}
		}
		if !src.drew || fired != 1 {
			t.Errorf("seed %d: drew %v, onFirst fired %d times; want true, once", seed, src.drew, fired)
		}
	}
}
