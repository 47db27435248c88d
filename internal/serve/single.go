package serve

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/parallel"
)

// flightGroup deduplicates concurrent work per key (singleflight): the
// first caller for a key becomes the leader and runs fn once; callers
// arriving while that call is in flight share its result.
//
// Cancellation is reference-counted rather than tied to the leader's
// request: fn runs under a context detached from any single caller, and
// each caller — leader included — counts as a waiter on the call. A caller
// whose own context dies stops waiting immediately; when the last waiter
// abandons the call, the shared context is cancelled so the synthesis
// aborts instead of burning a worker for a result nobody wants. A late
// joiner therefore keeps the work alive even after the original requester
// hangs up.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done   chan struct{} // closed when fn returns
	cancel context.CancelFunc

	mu      sync.Mutex
	waiters int

	// ent and err are written by the runner goroutine before done closes
	// and read only after <-done, so the close is their happens-before.
	ent *Entry
	err error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// Do returns fn's result for key, collapsing concurrent calls. shared
// reports whether this caller joined another caller's in-flight work. If
// ctx dies before the call completes, Do returns ctx.Err() promptly; the
// underlying work is cancelled only once every waiter has given up.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(runCtx context.Context) (*Entry, error)) (ent *Entry, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.mu.Lock()
		c.waiters++
		c.mu.Unlock()
		g.mu.Unlock()
		ent, err = c.wait(ctx)
		return ent, err, true
	}
	runCtx, cancel := context.WithCancel(context.Background())
	c := &flightCall{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.m[key] = c
	g.mu.Unlock()
	go func() {
		c.ent, c.err = recovered(runCtx, fn)
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	ent, err = c.wait(ctx)
	return ent, err, false
}

// panicError is a panic in the leader's work, turned into the error every
// waiter on the call receives: the runner goroutine belongs to no request,
// so a panic escaping it would end the process instead of failing the
// request. stack is the panicking goroutine's — a restart worker's when the
// panic came through parallel.Map.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// recovered runs fn, returning a *panicError in place of a panic.
func recovered(runCtx context.Context, fn func(context.Context) (*Entry, error)) (ent *Entry, err error) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case *parallel.Panic:
			ent, err = nil, &panicError{value: v.Value, stack: v.Stack}
		default:
			ent, err = nil, &panicError{value: v, stack: debug.Stack()}
		}
	}()
	return fn(runCtx)
}

// wait blocks until the call completes or ctx dies, whichever is first; a
// dead ctx deregisters this waiter (cancelling the shared work when it was
// the last) and surfaces the ctx error.
func (c *flightCall) wait(ctx context.Context) (*Entry, error) {
	select {
	case <-c.done:
		return c.ent, c.err
	case <-ctx.Done():
		c.drop()
		return nil, ctx.Err()
	}
}

// drop deregisters one waiter, cancelling the shared work when none remain.
func (c *flightCall) drop() {
	c.mu.Lock()
	c.waiters--
	if c.waiters == 0 {
		c.cancel()
	}
	c.mu.Unlock()
}
