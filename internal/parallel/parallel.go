// Package parallel provides the bounded worker pool shared by the synthesis
// restart fan-out and the harness experiments. Its contract is determinism:
// results are collected in input-index order and error propagation picks the
// same error the equivalent serial loop would have returned, no matter in
// which order the workers happen to finish.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Workers resolves a requested worker count: any value below 1 selects
// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and returns the n results indexed by input position.
//
// Error propagation is deterministic for deterministic fn: indices are
// dispatched in increasing order and, once any call fails, no further
// indices are handed out; among the calls that did run, the error of the
// smallest failing index wins. Every index below the first failing one has
// necessarily been dispatched already (dispatch is monotonic), so the
// returned error is exactly the one the serial loop
//
//	for i := 0; i < n; i++ { if _, err := fn(i); err != nil { return err } }
//
// would have produced.
//
// A panic in fn does not escape on a pool goroutine, where nothing could
// recover it and it would end the process: the pool stops handing out
// indices, drains, and Map panics on the calling goroutine with a *Panic
// holding the value and stack of the smallest panicking index.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		// Serial fast path: no goroutines, trivially ordered.
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		errIdx  = n
		firstEr error
		panIdx  = n
		firstPa *Panic
		wg      sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := -1
			defer func() {
				if v := recover(); v != nil {
					pa, nested := v.(*Panic) // an inner Map's: keep its stack
					if !nested {
						pa = &Panic{Value: v, Stack: debug.Stack()}
					}
					mu.Lock()
					if i < panIdx {
						panIdx, firstPa = i, pa
					}
					mu.Unlock()
					stopped.Store(true)
				}
			}()
			for {
				i = int(next.Add(1)) - 1
				if i >= n || stopped.Load() {
					return
				}
				r, err := fn(i)
				if err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstEr = i, err
					}
					mu.Unlock()
					stopped.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstPa != nil {
		panic(firstPa)
	}
	if firstEr != nil {
		return nil, firstEr
	}
	return results, nil
}

// Panic is what Map panics with, on its caller's goroutine, after fn
// panicked on a pool goroutine.
type Panic struct {
	// Value is what fn panicked with.
	Value any
	// Stack is the panicking goroutine's stack, taken where it was recovered.
	Stack []byte
}

// String renders the value and the original stack, so that a *Panic nobody
// recovers still prints where fn failed, not only where Map re-raised it.
func (p *Panic) String() string {
	return fmt.Sprintf("%v [re-raised by parallel.Map]\n\n%s", p.Value, p.Stack)
}

// MapObserved is Map wrapped in telemetry. One span named label covers the
// whole call (wall time); a span named label+".cell" closes per item (busy
// time), so the cell spans' total divided by label's wall time is the mean
// number of busy workers over the call. The counter label+".cells" records
// the fan-out size; like every counter it is independent of workers. A nil
// Observer falls straight through to Map.
func MapObserved[T any](o obs.Observer, label string, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if o == nil {
		return Map(workers, n, fn)
	}
	sp := obs.Span(o, label)
	defer sp.End()
	obs.Count(o, label+".cells", int64(n))
	cell := label + ".cell"
	return Map(workers, n, func(i int) (T, error) {
		cs := obs.Span(o, cell)
		defer cs.End()
		return fn(i)
	})
}
