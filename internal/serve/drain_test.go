package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeDrainsInFlight pins the graceful-shutdown contract: cancelling
// the Serve context while a synthesis is running closes the listener but
// lets the in-flight request finish, and Serve returns only after it has.
func TestServeDrainsInFlight(t *testing.T) {
	gate := newGate()
	cfg := quickConfig()
	cfg.Synth.Obs = gate
	srv := newTestServer(t, cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, srv, ln, 30*time.Second) }()
	url := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/design", "application/json",
			strings.NewReader(`{"benchmark":"CG","procs":16}`))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: b}
	}()

	// The request is mid-synthesis; begin shutdown.
	<-gate.started
	cancel()

	// Serve must still be draining (the request is in flight) ...
	select {
	case err := <-serveErr:
		t.Fatalf("Serve returned before the in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// ... new connections must be refused ...
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting connections during drain")
	}
	// ... and once synthesis completes, the request succeeds and Serve exits.
	close(gate.release)
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK || len(res.body) == 0 {
		t.Fatalf("drained request: status %d, %d bytes", res.status, len(res.body))
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned after the last request drained")
	}
	if got := srv.Metrics().Counter("serve.requests"); got != 1 {
		t.Errorf("serve.requests = %d, want 1", got)
	}
}

// TestServeDrainTimeout pins the bounded-drain escape hatch: a request that
// never finishes cannot hold shutdown hostage past drainTimeout.
func TestServeDrainTimeout(t *testing.T) {
	gate := newGate()
	cfg := quickConfig()
	cfg.Synth.Obs = gate
	srv := newTestServer(t, cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, srv, ln, 100*time.Millisecond) }()
	url := "http://" + ln.Addr().String()

	go http.Post(url+"/v1/design", "application/json",
		strings.NewReader(`{"benchmark":"CG","procs":16}`))
	<-gate.started
	cancel()

	select {
	case err := <-serveErr:
		if err == nil {
			t.Error("Serve returned nil despite an undrained request")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve ignored the drain timeout")
	}
	close(gate.release) // unblock the stuck synthesis so the test can exit
}
