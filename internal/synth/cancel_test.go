package synth

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
)

// cancelOnRestart is an Observer that fires a CancelFunc when restart
// number after+1 begins (the first, by default), so cancellation
// deterministically lands mid-synthesis.
type cancelOnRestart struct {
	mu      sync.Mutex
	after   int
	started int
	cancel  context.CancelFunc
}

func (*cancelOnRestart) Count(string, int64)           {}
func (*cancelOnRestart) SpanEnd(string, time.Duration) {}
func (*cancelOnRestart) Event(string, string)          {}

func (c *cancelOnRestart) SpanStart(name string) {
	if name == "synth.restart" {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.started++; c.started == c.after+1 {
			c.cancel()
		}
	}
}

// waitGoroutines fails t unless the goroutine count falls back to before:
// it polls, because goroutine exits lag the channel operations that release
// them.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSynthesizeContextCancel pins prompt cancellation: a context cancelled
// mid-restart surfaces context.Canceled (not a partial Result) and leaves no
// synthesis goroutines behind.
func TestSynthesizeContextCancel(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := SynthesizeCliques(ctx, pat, model.MaxCliqueSet(pat), Options{
		Seed:     1,
		Restarts: 8,
		Workers:  4,
		Obs:      &cancelOnRestart{cancel: cancel},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled synthesis returned a result: %+v", res)
	}

	// The restart pool must be fully drained.
	waitGoroutines(t, before)
}

// TestSynthesizeContextCancelExtension cancels once the extension restarts
// stream: no configured restart of CG/16 meets a degree budget of 2 with one
// processor per switch, and the cancel lands as the first extension restart
// begins. The run returns the context's error, not the best configured
// result, and the stream's pool drains.
func TestSynthesizeContextCancelExtension(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, Restarts: 2, Constraints: Constraints{MaxDegree: 2, MaxProcsPerSwitch: 1}}
	if res := synthOrDie(t, pat, opt); res.ConstraintsMet || res.Stats.RestartsRun != 4*opt.Restarts {
		t.Fatalf("met %v after %d restarts: want every extension restart to run", res.ConstraintsMet, res.Stats.RestartsRun)
	}
	for _, w := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		opt.Workers = w
		opt.Obs = &cancelOnRestart{after: opt.Restarts, cancel: cancel}
		res, err := SynthesizeCliques(ctx, pat, model.MaxCliqueSet(pat), opt)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers:%d: err = %v, want context.Canceled", w, err)
		}
		if res != nil {
			t.Errorf("Workers:%d: cancelled synthesis returned a result: %+v", w, res)
		}
		waitGoroutines(t, before)
	}
}

// TestSynthesizeContextPreCancelled pins the fast path: an already-dead
// context fails before any restart runs.
func TestSynthesizeContextPreCancelled(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	col := obs.NewCollector()
	res, err := SynthesizeCliques(ctx, pat, model.MaxCliqueSet(pat), Options{Seed: 1, Restarts: 4, Obs: col})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("pre-cancelled synthesis returned a result")
	}
	if got := col.Counter("synth.restarts_run"); got != 0 {
		t.Errorf("synth.restarts_run = %d, want 0 (no restart should have run)", got)
	}
}

// TestSynthesizeContextDeadline pins the timeout path: an expired deadline
// surfaces context.DeadlineExceeded.
func TestSynthesizeContextDeadline(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = SynthesizeCliques(ctx, pat, model.MaxCliqueSet(pat), Options{Seed: 1, Restarts: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSynthesizeNilContext pins the compatibility contract: a nil context
// behaves exactly like context.Background.
func TestSynthesizeNilContext(t *testing.T) {
	pat, err := nas.Generate("CG", 16, quickNASConfig())
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 the nil-tolerant contract is exactly what's under test
	res, err := SynthesizeCliques(nil, pat, model.MaxCliqueSet(pat), Options{Seed: 1, Restarts: 2})
	if err != nil {
		t.Fatalf("nil context: %v", err)
	}
	if res == nil || !res.ConstraintsMet {
		t.Errorf("nil-context synthesis returned %+v", res)
	}
}
