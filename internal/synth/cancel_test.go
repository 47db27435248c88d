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

// cancelOnRestart is an Observer that fires a CancelFunc the first time a
// restart begins, so cancellation deterministically lands mid-synthesis.
type cancelOnRestart struct {
	once   sync.Once
	cancel context.CancelFunc
}

func (*cancelOnRestart) Count(string, int64)   {}
func (*cancelOnRestart) SpanEnd(string, int64) {}
func (*cancelOnRestart) Event(string, string)  {}

func (c *cancelOnRestart) SpanStart(name string) int64 {
	if name == "synth.restart" {
		c.once.Do(c.cancel)
	}
	return 0
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

	// The restart pool must be fully drained: poll because goroutine exits
	// lag the channel operations that release them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
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
