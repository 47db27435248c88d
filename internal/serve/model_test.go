package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/trace"
)

// inlineRequest renders a pattern as an inline-trace design request.
func inlineRequest(t testing.TB, p *model.Pattern) string {
	t.Helper()
	var sb strings.Builder
	if err := trace.Encode(&sb, p); err != nil {
		t.Fatal(err)
	}
	q, err := json.Marshal(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return `{"trace":` + string(q) + `}`
}

// jitterRequest is the long non-phase-aligned request of bench/'s
// warm_variants workload: CG/16 over 39 iterations, every processor skewed.
func jitterRequest(t testing.TB) string {
	t.Helper()
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 39})
	if err != nil {
		t.Fatal(err)
	}
	return inlineRequest(t, trace.ApplySkew(p, 0.5, 1))
}

// spanCount reads how often the named span closed on the collector.
func spanCount(col *obs.Collector, name string) int64 {
	for _, sp := range col.Report("test").Spans {
		if sp.Name == name {
			return sp.Count
		}
	}
	return 0
}

// bodyDigest hashes a response body with what differs from run to run in it,
// the span timings and event timestamps, zeroed. Everything else — the
// design, the verdicts, the counters, report.pattern, the span names and
// counts, the events' text — is in the digest.
func bodyDigest(t *testing.T, body []byte) string {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	rep := v["report"].(map[string]any)
	for _, sp := range rep["spans"].([]any) {
		m := sp.(map[string]any)
		m["total_ns"], m["min_ns"], m["max_ns"] = 0, 0, 0
	}
	if evs, ok := rep["events"].([]any); ok {
		for _, ev := range evs {
			ev.(map[string]any)["at_ns"] = 0
		}
	}
	canon, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// TestFlatMissComputesModelOnce pins the data flow of a flat miss: the
// contention model (periods, then maximum cliques) is derived once per
// pattern and handed to the fingerprint, the synthesis and the pattern
// summary, and what comes out is what came out when each of the three
// derived its own.
// The digests were taken from the commit before that change, with
// bodyDigest, on a quickConfig server sent these three requests in order,
// and re-based twice since: when mergeRefine began to skip merges its port
// bound rules out, the canonical bodies changed in stats.Reroutes and the
// synth.reroutes counter (reroutes made inside discarded attempts are
// counted, and a skipped attempt makes none) and gained the
// MergesTried/MergesSkipped fields and counters — nothing else (CHANGES.md,
// PR 22, has the diff); and when branch-and-bound colouring left
// production, the stats.Coloring object became the one stats.DSATUR count
// and the always-zero coloring.branch_and_bound and coloring.fallbacks
// counters went — nothing else.
func TestFlatMissComputesModelOnce(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i, c := range []struct{ name, body, digest string }{
		{"CG/16", `{"benchmark":"CG","procs":16}`, "a929b93ccf1030104ef870ae1c966a5e427d6b8f6a94e470fbde8b706b0cf345"},
		{"jitter", jitterRequest(t), "18417b659fba7e60b20adea77831dcd50e9e8c96e1d7c099f8c1a930c89c7add"},
		{"ring-allreduce/64", `{"benchmark":"ring-allreduce","procs":64}`, "7ccde0be3c9e97efa8376c490df40cd20ae1670325677f4559e6441b4ed282b4"},
	} {
		resp, body := postDesign(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Nocd-Cache") != "miss" {
			t.Fatalf("%s: status %d, cache %q: %s", c.name, resp.StatusCode, resp.Header.Get("X-Nocd-Cache"), body)
		}
		if got := spanCount(srv.Metrics(), "serve.model"); got != int64(i+1) {
			t.Errorf("%s: %d model computations after %d flat misses", c.name, got, i+1)
		}
		if got := bodyDigest(t, body); got != c.digest {
			t.Errorf("%s: response digest %s, want %s", c.name, got, c.digest)
		}
	}
	// The model is the pattern's, kept in the key memo: a hit derives
	// nothing, nor does a miss on a known pattern, flat or hierarchical (its
	// pattern summary is the model's); a hierarchical miss on a new pattern
	// derives the whole pattern's model once.
	post := func(body string) {
		t.Helper()
		if resp, b := postDesign(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, b)
		}
	}
	post(`{"benchmark":"CG","procs":16}`)
	post(`{"benchmark":"CG","procs":16,"seed":2}`)
	post(`{"benchmark":"CG","procs":16,"hier":{"clusters":"blocks:4"}}`)
	if got := spanCount(srv.Metrics(), "serve.model"); got != 3 {
		t.Errorf("%d model computations, want 3: a hit or a miss on a known pattern computed one", got)
	}
	if got := srv.Metrics().Counter("serve.model_memo_hit"); got != 2 {
		t.Errorf("serve.model_memo_hit = %d, want 2: the flat and the hier miss on CG/16", got)
	}
	post(`{"benchmark":"FFT","procs":8,"hier":{"clusters":"2"}}`)
	if got := spanCount(srv.Metrics(), "serve.model"); got != 4 {
		t.Errorf("%d model computations, want 4: a hier miss on a new pattern did not compute exactly one", got)
	}
}

// TestMixedWidthPatternsAllSucceed sends one server patterns on either side
// of the 64-flow boundary in the order that used to crash it (see
// synth.TestStatePoolMixedWidths), then the FFT/8-FFT/16 alternation.
func TestMixedWidthPatternsAllSucceed(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var allToAll trace.PhaseSpec
	for s := 0; s < 9; s++ {
		for d := 0; d < 9; d++ {
			if s != d {
				allToAll.Flows = append(allToAll.Flows, model.F(s, d))
			}
		}
	}
	bodies := []string{
		inlineRequest(t, trace.BuildPhased("all-to-all.9", 9, []trace.PhaseSpec{allToAll})),
		`{"benchmark":"CG","procs":16}`,
		`{"benchmark":"FFT","procs":16}`,
	}
	for seed := 2; seed <= 3; seed++ {
		for _, procs := range []int{8, 16} {
			bodies = append(bodies, `{"benchmark":"FFT","procs":`+strconv.Itoa(procs)+`,"seed":`+strconv.Itoa(seed)+`}`)
		}
	}
	for _, body := range bodies {
		if resp, b := postDesign(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%.60s: status %d: %s", body, resp.StatusCode, b)
		}
	}
}

// panicOnce is an Observer that panics the first time a synthesis restart
// opens its span — on a restart worker's goroutine, where a bug in the
// search would.
type panicOnce struct {
	obs.Observer
	fired atomic.Bool
}

func (p *panicOnce) SpanStart(name string) {
	if name == "synth.restart" && p.fired.CompareAndSwap(false, true) {
		panic("injected restart panic")
	}
	p.Observer.SpanStart(name)
}

// TestRestartPanicFailsOneRequest: a panic on a restart goroutine is one
// 500, counted and logged, and the server answers the next request.
func TestRestartPanicFailsOneRequest(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	for _, workers := range []int{1, 2} {
		logged.Reset()
		cfg := quickConfig()
		cfg.Synth.Workers = workers
		cfg.Synth.Obs = &panicOnce{Observer: obs.NewCollector()}
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv)
		const body = `{"benchmark":"FFT","procs":8}`
		resp, b := postDesign(t, ts.URL, body)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), `"`+CodeInternal+`"`) {
			t.Fatalf("workers=%d: status %d, want 500 %s: %s", workers, resp.StatusCode, CodeInternal, b)
		}
		if strings.Contains(string(b), "goroutine") {
			t.Errorf("workers=%d: the stack leaked to the client: %s", workers, b)
		}
		if got := srv.Metrics().Counter("serve.panics"); got != 1 {
			t.Errorf("workers=%d: serve.panics = %d, want 1", workers, got)
		}
		// The log names the panic and shows the frame it came from, also
		// when that frame ran on a pool goroutine.
		if out := logged.String(); !strings.Contains(out, "injected restart panic") || !strings.Contains(out, "panicOnce") {
			t.Errorf("workers=%d: log lacks the panic or its stack:\n%s", workers, out)
		}
		// The failed call left nothing behind: the same request now runs.
		if resp, b := postDesign(t, ts.URL, body); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Nocd-Cache") != "miss" {
			t.Fatalf("workers=%d: request after the panic: status %d: %s", workers, resp.StatusCode, b)
		}
		ts.Close()
	}
}
