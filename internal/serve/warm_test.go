package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/collective"
	"repro/internal/nas"
	"repro/internal/trace"
)

// assertDesignOK decodes a /design response body and asserts the synthesized
// design met its constraints and is contention-free — the quality floor a
// seeded synthesis must not sink below.
func assertDesignOK(t *testing.T, body []byte) {
	t.Helper()
	var dr DesignResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !dr.ConstraintsMet || !dr.ContentionFree {
		t.Errorf("design quality regressed: constraints_met=%v contention_free=%v",
			dr.ConstraintsMet, dr.ContentionFree)
	}
}

// TestWarmSeededAcrossVariants is the warm-start acceptance pin end to end:
// a CG-16 design lands in the cache, then a scaled variant of the same app —
// a different content key — is served from a seeded synthesis instead of a
// cold start, at cold-start quality.
func TestWarmSeededAcrossVariants(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp1, b1 := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("base request: status %d: %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Nocd-Warm"); got != "cold" {
		t.Errorf("base request warm header = %q, want cold (empty index)", got)
	}

	// Doubling the iteration count changes the key (more messages, more
	// bytes) but not the contention structure, so the base design seeds it.
	resp2, b2 := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16,"iterations":2}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("variant request: status %d: %s", resp2.StatusCode, b2)
	}
	if got := resp2.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("variant cache header = %q, want miss (distinct key)", got)
	}
	if got := resp2.Header.Get("X-Nocd-Warm"); got != "seeded" {
		t.Errorf("variant warm header = %q, want seeded", got)
	}
	assertDesignOK(t, b2)

	col := srv.Metrics()
	for name, want := range map[string]int64{
		"serve.warm_cold":   1,
		"serve.warm_seeded": 1,
		"serve.warm_store":  2,
	} {
		if got := col.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := col.Counter("synth.seeded_restarts"); got == 0 {
		t.Error("synth.seeded_restarts = 0: the variant synthesis never used the seed")
	}

	// A cache hit replays the stored response, warm disposition included.
	resp3, b3 := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16,"iterations":2}`)
	if got := resp3.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("replay cache header = %q, want hit", got)
	}
	if got := resp3.Header.Get("X-Nocd-Warm"); got != "seeded" {
		t.Errorf("replay warm header = %q, want seeded", got)
	}
	if !bytes.Equal(b2, b3) {
		t.Error("cache replay of the seeded response is not byte-identical")
	}
}

// TestWarmUnrelatedStaysCold: a structurally unrelated workload must not be
// seeded from the cache — its nearest neighbor is beyond the threshold.
func TestWarmUnrelatedStaysCold(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
	resp, b := postDesign(t, ts.URL, `{"benchmark":"tree-broadcast","procs":16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tree-broadcast request: status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Nocd-Warm"); got != "cold" {
		t.Errorf("unrelated workload warm header = %q, want cold", got)
	}
	col := srv.Metrics()
	if got := col.Counter("serve.warm_seeded"); got != 0 {
		t.Errorf("serve.warm_seeded = %d, want 0", got)
	}
	if got := col.Counter("serve.warm_cold"); got != 2 {
		t.Errorf("serve.warm_cold = %d, want 2", got)
	}
}

// TestWarmDisabled: WarmThreshold < 0 turns the layer off entirely — no
// header, no counters, no index.
func TestWarmDisabled(t *testing.T) {
	cfg := quickConfig()
	cfg.WarmThreshold = -1
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, b := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Nocd-Warm"); got != "" {
		t.Errorf("warm header = %q, want absent when disabled", got)
	}
	col := srv.Metrics()
	for _, name := range []string{"serve.warm_cold", "serve.warm_seeded", "serve.warm_store"} {
		if got := col.Counter(name); got != 0 {
			t.Errorf("%s = %d, want 0 when disabled", name, got)
		}
	}
	if srv.warm != nil {
		t.Error("warm index allocated despite negative threshold")
	}
}

// TestWarmIndexFollowsEviction: the fingerprint index tracks the LRU in
// lockstep — evicting a design removes its warm entry, so the index never
// offers a seed the cache no longer holds.
func TestWarmIndexFollowsEviction(t *testing.T) {
	cfg := quickConfig()
	cfg.CacheSize = 1
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
	if got := srv.warm.size(); got != 1 {
		t.Fatalf("warm index size after first store = %d, want 1", got)
	}
	resp, _ := postDesign(t, ts.URL, `{"benchmark":"tree-broadcast","procs":16}`)
	if got := srv.warm.size(); got != 1 {
		t.Fatalf("warm index size after eviction = %d, want 1", got)
	}
	wantKey := resp.Header.Get("X-Nocd-Pattern-Hash")
	srv.warm.mu.Lock()
	_, ok := srv.warm.m[wantKey]
	srv.warm.mu.Unlock()
	if !ok {
		t.Errorf("warm index lost the surviving key %s", wantKey)
	}
}

// TestGetDesignByKey: GET /design/{key} replays the exact cached bytes for
// the content-addressed key every response advertises, and 404s for keys
// the cache does not hold.
func TestGetDesignByKey(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, posted := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
	key := resp.Header.Get("X-Nocd-Pattern-Hash")
	if key == "" {
		t.Fatal("POST /design returned no X-Nocd-Pattern-Hash")
	}

	got, err := http.Get(ts.URL + "/v1/design/" + key)
	if err != nil {
		t.Fatalf("GET /design/%s: %v", key, err)
	}
	defer got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("GET /design/{key}: status %d", got.StatusCode)
	}
	if h := got.Header.Get("X-Nocd-Cache"); h != "hit" {
		t.Errorf("GET cache header = %q, want hit", h)
	}
	fetched, err := io.ReadAll(got.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(posted, fetched) {
		t.Error("GET /design/{key} is not byte-identical to the POST response")
	}

	miss, err := http.Get(ts.URL + "/v1/design/sha256:doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("GET of unknown key: status %d, want 404", miss.StatusCode)
	}

	col := srv.Metrics()
	if got := col.Counter("serve.design_fetch"); got != 2 {
		t.Errorf("serve.design_fetch = %d, want 2", got)
	}
	if got := col.Counter("serve.design_fetch_miss"); got != 1 {
		t.Errorf("serve.design_fetch_miss = %d, want 1", got)
	}
}

// TestFingerprintCorpusDistinct pins the fingerprint's discriminative power
// on the full NAS + collective corpus at 16 processors: distinct contention
// structures produce distinct fingerprints, separated by more than the warm
// threshold so none would falsely seed another. The known structural twins —
// BT/SP (same multipartition exchange) and the three ring collectives (same
// neighbor schedule, different payload roles) — must instead collapse to
// identical fingerprints at distance 0: seeding across them is the feature.
// This test lives here rather than in internal/trace because trace cannot
// import the generator packages (they depend on it).
func TestFingerprintCorpusDistinct(t *testing.T) {
	twins := map[string]bool{
		"BT|SP":                         true,
		"all-gather|reduce-scatter":     true,
		"all-gather|ring-allreduce":     true,
		"reduce-scatter|ring-allreduce": true,
	}
	type item struct {
		name string
		fp   *trace.Fingerprint
	}
	var corpus []item
	for _, n := range nas.Names() {
		p, err := nas.Generate(n, 16, nas.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, item{n, trace.FingerprintPattern(p)})
	}
	for _, n := range collective.Names() {
		p, err := collective.Generate(n, 16, collective.Config{Repeats: 1})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, item{n, trace.FingerprintPattern(p)})
	}
	for i := range corpus {
		for j := i + 1; j < len(corpus); j++ {
			a, b := corpus[i], corpus[j]
			names := []string{a.name, b.name}
			sort.Strings(names)
			pair := fmt.Sprintf("%s|%s", names[0], names[1])
			d := a.fp.Distance(b.fp)
			if twins[pair] {
				if !a.fp.Equal(b.fp) || d != 0 {
					t.Errorf("%s: structural twins should share a fingerprint (distance %.3f)", pair, d)
				}
				continue
			}
			if a.fp.Equal(b.fp) {
				t.Errorf("%s: distinct structures collided on one fingerprint", pair)
			}
			if d <= DefaultWarmThreshold {
				t.Errorf("%s: distance %.3f within warm threshold %.2f — would falsely cross-seed", pair, d, DefaultWarmThreshold)
			}
		}
	}
}

// size is the warm index's entry count.
func (w *warmIndex) size() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.m)
}
