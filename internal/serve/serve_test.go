package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// quickConfig keeps test syntheses at unit-test scale.
func quickConfig() Config {
	return Config{
		Synth:    synth.Options{Seed: 1, Restarts: 2},
		Workload: workloads.Config{Iterations: 1, ByteScale: 0.25},
	}
}

// newTestServer builds a Server, failing the test on construction errors
// (the only source is an unusable -data-dir).
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

func postDesign(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/design", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/design: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

// waitCounter polls the collector until the named counter reaches want.
func waitCounter(t *testing.T, col *obs.Collector, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if col.Counter(name) >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("counter %s did not reach %d (have %d)", name, want, col.Counter(name))
}

// TestDesignCacheMissThenHit is the acceptance-criteria pin: the same CG-16
// pattern requested twice synthesizes once. The second response must be
// byte-identical and served without re-entering synth.Synthesize, proven by
// the serve.cache_* and synth.runs counters on the server's Collector.
func TestDesignCacheMissThenHit(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"benchmark":"CG","procs":16}`
	resp1, b1 := postDesign(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	resp2, b2 := postDesign(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache hit is not byte-identical:\nfirst:  %d bytes\nsecond: %d bytes", len(b1), len(b2))
	}

	col := srv.Metrics()
	for name, want := range map[string]int64{
		"serve.requests":   2,
		"serve.cache_miss": 1,
		"serve.cache_hit":  1,
		// One actual synthesis: the hit never re-entered synth.Synthesize.
		"synth.runs": 1,
	} {
		if got := col.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	var dr DesignResponse
	if err := json.Unmarshal(b1, &dr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if dr.Schema != ResponseSchema || dr.Version != ResponseVersion {
		t.Errorf("schema/version = %q/%d", dr.Schema, dr.Version)
	}
	if dr.Procs != 16 || dr.Switches == 0 || dr.Links == 0 {
		t.Errorf("response looks empty: %+v", dr)
	}
	if !dr.ConstraintsMet || !dr.ContentionFree {
		t.Errorf("CG-16 design should meet constraints and be contention-free: %+v", dr)
	}
	if dr.Report == nil {
		t.Fatal("response has no RunReport")
	}
	if err := dr.Report.Validate(); err != nil {
		t.Errorf("embedded report invalid: %v", err)
	}
	if dr.Report.Counters["synth.runs"] != 1 {
		t.Errorf("per-request report synth.runs = %d, want 1", dr.Report.Counters["synth.runs"])
	}
	// The design payload must round-trip through the design codec.
	if _, _, err := synth.LoadDesign(bytes.NewReader(dr.Design)); err != nil {
		t.Errorf("embedded design does not load: %v", err)
	}
}

// gateObserver blocks the first synthesis restart until released, giving
// tests a deterministic window while a synthesis is in flight. Installed
// via Config.Synth.Obs, which the server tees into every synthesis.
type gateObserver struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newGate() *gateObserver {
	return &gateObserver{started: make(chan struct{}), release: make(chan struct{})}
}

func (*gateObserver) Count(string, int64)   {}
func (*gateObserver) SpanEnd(string, int64) {}
func (*gateObserver) Event(string, string)  {}

func (g *gateObserver) SpanStart(name string) int64 {
	if name == "synth.restart" {
		g.once.Do(func() { close(g.started) })
		<-g.release
	}
	return 0
}

// TestDesignSingleflightCollapse pins the dedup layer: concurrent identical
// requests collapse onto one synthesis, with the sharers counted by
// serve.singleflight_shared and every response byte-identical.
func TestDesignSingleflightCollapse(t *testing.T) {
	gate := newGate()
	cfg := quickConfig()
	cfg.Synth.Obs = gate
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 4
	const body = `{"benchmark":"CG","procs":16}`
	type result struct {
		status int
		how    string
		body   []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postDesign(t, ts.URL, body)
			results[i] = result{status: resp.StatusCode, how: resp.Header.Get("X-Nocd-Cache"), body: b}
		}(i)
	}
	// Hold the leader's synthesis open until every request has arrived,
	// then give the stragglers a beat to join the flight.
	<-gate.started
	waitCounter(t, srv.Metrics(), "serve.requests", n)
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	wg.Wait()

	col := srv.Metrics()
	if got := col.Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1 (requests did not collapse)", got)
	}
	if got := col.Counter("serve.cache_miss"); got != 1 {
		t.Errorf("serve.cache_miss = %d, want 1", got)
	}
	if shared := col.Counter("serve.singleflight_shared"); shared == 0 {
		t.Errorf("serve.singleflight_shared = 0, want > 0")
	}
	if total := col.Counter("serve.singleflight_shared") + col.Counter("serve.cache_hit"); total != n-1 {
		t.Errorf("shared+hit = %d, want %d", total, n-1)
	}
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Errorf("request %d (%s) body differs from request 0 (%s)", i, r.how, results[0].how)
		}
	}
}

// TestDesignLRUEviction pins the bounded cache: with capacity 1, a second
// distinct pattern evicts the first, so re-requesting it synthesizes again.
func TestDesignLRUEviction(t *testing.T) {
	cfg := quickConfig()
	cfg.CacheSize = 1
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i, body := range []string{
		`{"benchmark":"CG","procs":16}`,
		`{"benchmark":"FFT","procs":16}`, // evicts CG
		`{"benchmark":"CG","procs":16}`,  // must miss again
	} {
		resp, b := postDesign(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Nocd-Cache"); got != "miss" {
			t.Errorf("request %d cache header = %q, want miss (capacity-1 cache)", i, got)
		}
	}
	col := srv.Metrics()
	if miss, hit := col.Counter("serve.cache_miss"), col.Counter("serve.cache_hit"); miss != 3 || hit != 0 {
		t.Errorf("miss/hit = %d/%d, want 3/0", miss, hit)
	}
	if got := srv.mem.Len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
}

// TestDesignBadRequests walks the 4xx paths: the server must answer with a
// client error — never a crash or a 500 — for malformed input, including
// the unknown-benchmark typed error from internal/nas.
func TestDesignBadRequests(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want string // substring of the error body
	}{
		{"empty body", ``, "decoding request"},
		{"bad json", `{"benchmark":`, "decoding request"},
		{"unknown field", `{"bench":"CG","procs":16}`, "decoding request"},
		{"no source", `{}`, "benchmark or an inline trace"},
		{"both sources", `{"benchmark":"CG","procs":16,"trace":"noctrace v1"}`, "mutually exclusive"},
		{"zero procs", `{"benchmark":"CG"}`, "procs > 0"},
		{"unknown benchmark", `{"benchmark":"LU","procs":16}`, "unknown benchmark"},
		{"unknown collective", `{"benchmark":"allreduce","procs":8}`, "collectives"},
		{"bad proc count", `{"benchmark":"CG","procs":7}`, "power-of-two"},
		{"collective nodes range", `{"benchmark":"ring-allreduce","procs":512}`, "between 2 and 256"},
		{"tree non-power-of-two", `{"benchmark":"tree-broadcast","procs":12}`, "power of two"},
		{"bad trace", `{"trace":"not a noctrace"}`, "decoding trace"},
		{"restarts too big", `{"benchmark":"CG","procs":16,"restarts":1000}`, "restarts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postDesign(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %q)", resp.StatusCode, b)
			}
			if !strings.Contains(string(b), tc.want) {
				t.Errorf("error body %q does not mention %q", b, tc.want)
			}
		})
	}
	if got := srv.Metrics().Counter("serve.bad_requests"); got != int64(len(cases)) {
		t.Errorf("serve.bad_requests = %d, want %d", got, len(cases))
	}

	resp, err := http.Get(ts.URL + "/v1/design")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/design status = %d, want 405", resp.StatusCode)
	}
}

// TestDesignInlineTrace exercises the second pattern source: an inline
// noctrace v1 document, which must hit the cache on repetition exactly like
// a benchmark request.
func TestDesignInlineTrace(t *testing.T) {
	pat, err := nas.Generate("MG", 8, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := trace.Encode(&enc, pat); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(DesignRequest{Trace: enc.String()})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp1, b1 := postDesign(t, ts.URL, string(body))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("trace request: status %d: %s", resp1.StatusCode, b1)
	}
	resp2, b2 := postDesign(t, ts.URL, string(body))
	if got := resp2.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("repeated trace request cache header = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("trace-request cache hit not byte-identical")
	}
}

// TestClientDisconnectAbortsSynthesis pins the cancellation path end to
// end, for a flat and a hier request: a client that hangs up mid-synthesis
// releases its handler promptly and — once no other request waits on the
// key — aborts the synthesis itself, observed via serve.synth_aborted. The
// gate on Config.Synth.Obs reaches a hier request's level restarts through
// the NoC and NoI observers.
func TestClientDisconnectAbortsSynthesis(t *testing.T) {
	for _, body := range []string{
		`{"benchmark":"CG","procs":16}`,
		`{"benchmark":"CG","procs":16,"hier":{"clusters":"4"}}`,
	} {
		gate := newGate()
		cfg := quickConfig()
		cfg.Synth.Obs = gate
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv)

		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/design", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()

		// Synthesis is provably in flight; hang up.
		<-gate.started
		cancel()
		if err := <-errc; err == nil {
			t.Errorf("%s: cancelled request returned a response", body)
		}
		// The handler must notice without waiting for the synthesis.
		waitCounter(t, srv.Metrics(), "serve.client_gone", 1)
		// Let the (now orphaned) synthesis proceed to its next cancellation
		// check; it must abort rather than complete.
		close(gate.release)
		waitCounter(t, srv.Metrics(), "serve.synth_aborted", 1)
		if got := srv.mem.Len(); got != 0 {
			t.Errorf("%s: aborted synthesis was cached (%d entries)", body, got)
		}
		ts.Close()
	}
}

// TestQueueFull pins admission control: with one execution slot held and no
// queue, a second distinct pattern fails fast with 503.
func TestQueueFull(t *testing.T) {
	gate := newGate()
	cfg := quickConfig()
	cfg.Synth.Obs = gate
	cfg.MaxInFlight = 1
	cfg.MaxQueue = -1 // no queueing at all
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, b := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupying request: status %d: %s", resp.StatusCode, b)
		}
	}()
	<-gate.started

	resp, _ := postDesign(t, ts.URL, `{"benchmark":"FFT","procs":16}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if got := srv.Metrics().Counter("serve.queue_full"); got != 1 {
		t.Errorf("serve.queue_full = %d, want 1", got)
	}
	close(gate.release)
	<-done
}

func TestHealthzMetricsBenchmarks(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Errorf("/v1/healthz = %d %q", resp.StatusCode, b)
	}

	if _, b = postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`); len(b) == 0 {
		t.Fatal("empty design response")
	}
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var rep obs.RunReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("/v1/metrics is not a RunReport: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Errorf("/v1/metrics report invalid: %v", err)
	}
	if rep.Tool != "nocd" {
		t.Errorf("report tool = %q", rep.Tool)
	}
	for _, name := range []string{"serve.requests", "serve.cache_miss", "synth.runs"} {
		if rep.Counters[name] == 0 {
			t.Errorf("/v1/metrics missing counter %s (have %v)", name, rep.Counters)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var names []string
	if err := json.Unmarshal(b, &names); err != nil {
		t.Fatalf("/v1/benchmarks: %v", err)
	}
	want := len(nas.Names()) + len(collective.Names())
	if len(names) != want || names[1] != "CG" {
		t.Errorf("/v1/benchmarks = %v, want %d names with NAS first", names, want)
	}
	// Collectives are appended after the NAS names, in registry order.
	if got := names[len(nas.Names()):]; !reflect.DeepEqual(got, collective.Names()) {
		t.Errorf("/v1/benchmarks collective tail = %v, want %v", got, collective.Names())
	}
}

// TestDesignCollective is the collective happy path through the server: a
// ring-allreduce request designs a network end to end, reports the
// collective's pattern name, and is served from cache on repetition exactly
// like a NAS benchmark.
func TestDesignCollective(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"benchmark":"ring-allreduce","procs":8}`
	resp1, b1 := postDesign(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, b1)
	}
	var dr DesignResponse
	if err := json.Unmarshal(b1, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Name != "generated.ring-allreduce.8" || dr.Procs != 8 {
		t.Errorf("designed %q/%d, want generated.ring-allreduce.8/8", dr.Name, dr.Procs)
	}
	if !dr.ConstraintsMet || !dr.ContentionFree {
		t.Errorf("collective design: met=%v free=%v", dr.ConstraintsMet, dr.ContentionFree)
	}
	if _, _, err := synth.LoadDesign(bytes.NewReader(dr.Design)); err != nil {
		t.Errorf("embedded design does not load: %v", err)
	}

	resp2, b2 := postDesign(t, ts.URL, body)
	if got := resp2.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("repeat cache header = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("collective cache hit not byte-identical")
	}
	if got := srv.Metrics().Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1", got)
	}
}
