package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// do issues one request and returns status, headers, and body.
func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestUnversionedPathsGone: the surface lives under /v1/ only. Every path
// that used to answer without the prefix is now a 404, whatever the method
// and even for a key the cache holds.
func TestUnversionedPathsGone(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"benchmark":"CG","procs":16}`
	resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request: status %d: %s", resp.StatusCode, b)
	}
	key := resp.Header.Get("X-Nocd-Pattern-Hash")

	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/design", body},
		{http.MethodPost, "/designs", "[" + body + "]"},
		{http.MethodGet, "/design/" + key, ""},
		{http.MethodGet, "/benchmarks", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/metrics", ""},
	} {
		name := tc.method + " " + strings.TrimSuffix(tc.path, key)
		t.Run(name, func(t *testing.T) {
			if resp, _ := do(t, tc.method, ts.URL+"/v1"+tc.path, tc.body); resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1%s: status %d, want 200", tc.path, resp.StatusCode)
			}
			if resp, _ := do(t, tc.method, ts.URL+tc.path, tc.body); resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: status %d, want 404", tc.path, resp.StatusCode)
			}
		})
	}
}

// decodeEnvelope asserts a response is the uniform error envelope and
// returns its code.
func decodeEnvelope(t *testing.T, resp *http.Response, body []byte) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v (%q)", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Errorf("envelope missing code or message: %q", body)
	}
	return env.Error.Code
}

// TestErrorEnvelope walks every error status the surface can produce and
// pins that each carries the typed JSON envelope with its documented code.
// hugeProcsTrace is a 65-byte inline trace whose header names twenty million
// processors. The decoder accepts it; before the inline bound, encoding,
// hashing and fingerprinting it per processor took nocd to 8.9 GB.
const hugeProcsTrace = `{"trace":"noctrace v1\nname x\nprocs 20000000\nmsg 0 0 1 0 1 8\n"}`

// TestInlineTraceProcsBounded: the inline trace meets the same procs bound as
// a by-name request, straight after decode — a 413 within a second, nothing
// generated, nothing synthesized.
func TestInlineTraceProcsBounded(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	done := make(chan itemResult, 1)
	go func() { done <- srv.resolve(context.Background(), []byte(hugeProcsTrace), false) }()
	select {
	case res := <-done:
		if res.status != http.StatusRequestEntityTooLarge || res.errCode != CodeTooLarge {
			t.Fatalf("status %d code %q (%s), want 413 %s", res.status, res.errCode, res.errMsg, CodeTooLarge)
		}
	case <-time.After(time.Second):
		t.Fatal("no answer within 1s: the trace's procs header is not bounded before per-processor work")
	}
	for name, want := range map[string]int64{"serve.too_large": 1, "serve.pattern_generated": 0, "synth.runs": 0} {
		if got := srv.Metrics().Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// At the bound an inline trace is judged on its merits.
	atBound := `{"trace":"noctrace v1\nname x\nprocs 1024\nmsg 0 0 1 0 1 8\n"}`
	if plan, err := srv.planRequest([]byte(atBound)); err != nil {
		t.Fatal(err)
	} else if _, _, err := srv.requestKey(plan); err != nil {
		t.Errorf("procs 1024 inline: %v, want a key", err)
	}
}

func TestErrorEnvelope(t *testing.T) {
	t.Run("400 bad_request", func(t *testing.T) {
		srv := newTestServer(t, quickConfig())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeBadRequest {
			t.Errorf("code = %q, want %q", code, CodeBadRequest)
		}
	})

	// A name the workload registry refuses, or a size its shape rejects, is
	// a 400 carrying the registry's message byte for byte.
	t.Run("400 workload", func(t *testing.T) {
		srv := newTestServer(t, quickConfig())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, tc := range []struct{ body, message string }{
			{`{"benchmark":"LU","procs":16}`, `unknown benchmark or collective "LU" (benchmarks [BT CG FFT MG SP], collectives [ring-allreduce reduce-scatter all-gather tree-broadcast])`},
			{`{"benchmark":"CG","procs":7}`, `nas: CG requires a power-of-two processor count, got 7`},
			{`{"benchmark":"BT","procs":8}`, `nas: BT requires a perfect-square processor count, got 8`},
			{`{"benchmark":"ring-allreduce","procs":512}`, `collective: ring-allreduce requires a node count between 2 and 256, got 512`},
			{`{"benchmark":"tree-broadcast","procs":12}`, `collective: tree-broadcast requires a node count that is a power of two between 2 and 256, got 12`},
		} {
			resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status = %d, want 400 (%s)", tc.body, resp.StatusCode, b)
			}
			var env ErrorResponse
			if err := json.Unmarshal(b, &env); err != nil {
				t.Fatalf("%s: error body is not the envelope: %v (%q)", tc.body, err, b)
			}
			if want := (ErrorDetail{Code: CodeBadRequest, Message: tc.message}); env.Error != want {
				t.Errorf("%s: envelope = %+v, want %+v", tc.body, env.Error, want)
			}
		}
	})

	// A negative constraint is a client error, flat or hier: the server
	// neither synthesizes nor stores an unmeetable design.
	t.Run("400 negative knobs", func(t *testing.T) {
		srv := newTestServer(t, quickConfig())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, tc := range []struct{ body, message string }{
			{`{"benchmark":"CG","procs":16,"max_degree":-1}`, "max_degree and max_procs must be non-negative"},
			{`{"benchmark":"CG","procs":16,"max_procs":-2}`, "max_degree and max_procs must be non-negative"},
			{`{"benchmark":"CG","procs":16,"hier":{"clusters":"4","noi_max_degree":-1}}`, "hier knobs must be non-negative"},
		} {
			resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status = %d, want 400 (%s)", tc.body, resp.StatusCode, b)
			}
			var env ErrorResponse
			if err := json.Unmarshal(b, &env); err != nil {
				t.Fatalf("%s: error body is not the envelope: %v (%q)", tc.body, err, b)
			}
			if want := (ErrorDetail{Code: CodeBadRequest, Message: tc.message}); env.Error != want {
				t.Errorf("%s: envelope = %+v, want %+v", tc.body, env.Error, want)
			}
		}
		if n := srv.Metrics().Counter("synth.runs"); n != 0 {
			t.Errorf("synth.runs = %d after three rejected requests, want 0", n)
		}
	})

	t.Run("404 not_found", func(t *testing.T) {
		srv := newTestServer(t, quickConfig())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, b := do(t, http.MethodGet, ts.URL+"/v1/design/sha256:"+strings.Repeat("0", 64), "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeNotFound {
			t.Errorf("code = %q, want %q", code, CodeNotFound)
		}
		if got := srv.Metrics().Counter("serve.design_fetch_miss"); got != 1 {
			t.Errorf("serve.design_fetch_miss = %d, want 1", got)
		}
	})

	t.Run("413 too_large", func(t *testing.T) {
		srv := newTestServer(t, quickConfig())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, tc := range []struct{ name, body string }{
			{"iterations", `{"benchmark":"CG","procs":16,"iterations":1000000}`},
			{"iterations just past", `{"benchmark":"CG","procs":16,"iterations":4097}`},
			{"procs", `{"benchmark":"FFT","procs":65536}`},
			{"procs just past", `{"benchmark":"ring-allreduce","procs":1025}`},
			{"unknown name, still bounded first", `{"benchmark":"LU","procs":2048}`},
			{"hier", `{"benchmark":"CG","procs":4096,"hier":{"clusters":"4"}}`},
			{"inline trace header", hugeProcsTrace},
			{"messages, NAS", `{"benchmark":"FFT","procs":1024,"iterations":4096}`},
			{"messages, collective", `{"benchmark":"ring-allreduce","procs":1024,"iterations":4096}`},
		} {
			resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", tc.body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: status = %d, want 413 (%s)", tc.name, resp.StatusCode, b)
			}
			if code := decodeEnvelope(t, resp, b); code != CodeTooLarge {
				t.Errorf("%s: code = %q, want %q", tc.name, code, CodeTooLarge)
			}
		}
		// Within the bounds the request is judged on its merits: 1,024 nodes
		// is the collective generator's 400, not a 413.
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"tree-broadcast","procs":1024,"iterations":1}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("at the bounds: status = %d, want the generator's 400 (%s)", resp.StatusCode, b)
		}
		// The by-name bounds run before the memo and before any generator;
		// the inline trace's runs on its decoded header, after a memo miss,
		// and a trace past it is never memoised.
		col := srv.Metrics()
		for name, want := range map[string]int64{
			"serve.too_large":         9,
			"serve.keymemo_hit":       0,
			"serve.keymemo_miss":      2, // the inline trace and the request within the bounds
			"serve.bad_requests":      1, // the request within the bounds
			"serve.pattern_generated": 0,
		} {
			if got := col.Counter(name); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	})

	t.Run("429 bulk_saturated", func(t *testing.T) {
		cfg := quickConfig()
		cfg.BulkMaxInFlight = -1 // bulk lane disabled: every bulk request throttles
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16,"lane":"bulk"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, b)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeBulkSaturated {
			t.Errorf("code = %q, want %q", code, CodeBulkSaturated)
		}
		if got := srv.Metrics().Counter("serve.lane_bulk_throttled"); got != 1 {
			t.Errorf("serve.lane_bulk_throttled = %d, want 1", got)
		}
	})

	t.Run("503 queue_full", func(t *testing.T) {
		gate := newGate()
		cfg := quickConfig()
		cfg.Synth.Obs = gate
		cfg.MaxInFlight = 1
		cfg.MaxQueue = -1
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
		}()
		<-gate.started
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"FFT","procs":16}`)
		close(gate.release)
		<-done
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, b)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeQueueFull {
			t.Errorf("code = %q, want %q", code, CodeQueueFull)
		}
	})

	// The budget binds a hier miss as it does a flat one: every level
	// synthesizes under the leader's context.
	t.Run("504 timeout", func(t *testing.T) {
		for _, body := range []string{
			`{"benchmark":"CG","procs":16}`,
			`{"benchmark":"CG","procs":16,"hier":{"clusters":"4"}}`,
		} {
			cfg := quickConfig()
			cfg.Timeout = time.Nanosecond
			srv := newTestServer(t, cfg)
			ts := httptest.NewServer(srv)
			resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", body)
			ts.Close()
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("%s: status = %d, want 504 (%s)", body, resp.StatusCode, b)
			}
			if code := decodeEnvelope(t, resp, b); code != CodeTimeout {
				t.Errorf("%s: code = %q, want %q", body, code, CodeTimeout)
			}
			for _, name := range []string{"serve.timeout", "serve.synth_aborted"} {
				if got := srv.Metrics().Counter(name); got != 1 {
					t.Errorf("%s: %s = %d, want 1", body, name, got)
				}
			}
		}
	})
}

// TestLaneValidation pins lane parsing: empty defaults to interactive,
// unknown lanes are client errors, and the per-lane counters tick.
func TestLaneValidation(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16,"lane":"express"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown lane: status %d (%s)", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "unknown lane") {
		t.Errorf("error body %q does not mention the lane", b)
	}

	if resp, b = do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("default lane: status %d (%s)", resp.StatusCode, b)
	}
	if got := srv.Metrics().Counter("serve.lane_interactive"); got != 1 {
		t.Errorf("serve.lane_interactive = %d, want 1", got)
	}

	// The lane must not change the cache key: a bulk repeat of the same
	// pattern is a hit, not a second synthesis.
	resp, _ = do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16,"lane":"bulk"}`)
	if got := resp.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("bulk repeat cache header = %q, want hit (lane leaked into the key)", got)
	}
	if got := srv.Metrics().Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1", got)
	}
}
