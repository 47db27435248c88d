package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { t.Fatal("fn called"); return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

func TestMapFirstErrorIsSerialError(t *testing.T) {
	// Indices 3 and 7 fail; the serial loop would report 3 first. Every
	// worker count must return index 3's error regardless of scheduling.
	for _, workers := range []int{1, 2, 4, 16} {
		_, err := Map(workers, 10, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Errorf("workers=%d: err = %v, want fail at 3", workers, err)
		}
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	// With one worker, the failure at index 2 must prevent any later call.
	var calls atomic.Int64
	boom := errors.New("boom")
	_, err := Map(1, 100, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("fn called %d times, want 3", n)
	}
}

// TestMapReraisesWorkerPanic injects a panicking fn: the panic must reach the
// caller's goroutine (where it can be recovered) after the pool has drained,
// carrying the value and stack of the smallest panicking index.
func TestMapReraisesWorkerPanic(t *testing.T) {
	for _, workers := range []int{2, 8} {
		var running atomic.Int64
		got := func() (v any) {
			defer func() { v = recover() }()
			Map(workers, 40, func(i int) (int, error) {
				running.Add(1)
				defer running.Add(-1)
				if i == 5 || i == 23 {
					panic(fmt.Sprintf("boom at %d", i))
				}
				return i, nil
			})
			return nil
		}()
		pa, ok := got.(*Panic)
		if !ok {
			t.Fatalf("workers=%d: recovered %v (%T), want *Panic", workers, got, got)
		}
		if pa.Value != "boom at 5" {
			t.Errorf("workers=%d: Value = %v, want boom at 5", workers, pa.Value)
		}
		if !strings.Contains(string(pa.Stack), "TestMapReraisesWorkerPanic") {
			t.Errorf("workers=%d: stack does not show the panicking fn:\n%s", workers, pa.Stack)
		}
		if n := running.Load(); n != 0 {
			t.Errorf("workers=%d: %d calls still running when Map re-raised", workers, n)
		}
	}
	// A nested Map hands the inner *Panic through unchanged.
	got := func() (v any) {
		defer func() { v = recover() }()
		Map(2, 2, func(int) ([]int, error) {
			return Map(2, 2, func(j int) (int, error) { panic("inner") })
		})
		return nil
	}()
	if pa, ok := got.(*Panic); !ok || pa.Value != "inner" {
		t.Fatalf("nested: recovered %v, want the inner *Panic", got)
	}
}

// TestMapConcurrentStress hammers the pool under the race detector: many
// goroutine-heavy maps with shared counters must neither race nor drop work.
func TestMapConcurrentStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		var sum atomic.Int64
		got, err := Map(8, 200, func(i int) (int, error) {
			sum.Add(int64(i))
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(200 * 199 / 2)
		if sum.Load() != want {
			t.Fatalf("round %d: sum %d, want %d", round, sum.Load(), want)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("round %d: result[%d] = %d", round, i, v)
			}
		}
	}
}
