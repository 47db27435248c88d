package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// newFleet starts n replicas wired into one consistent-hash ring: every
// replica lists the same membership (itself included), exactly like n nocd
// daemons launched with identical -peers flags.
func newFleet(t *testing.T, n int, mutate func(i int, cfg *Config)) (servers []*Server, urls []string) {
	t.Helper()
	servers = make([]*Server, n)
	urls = make([]string, n)
	for i := 0; i < n; i++ {
		cfg := quickConfig()
		if mutate != nil {
			mutate(i, &cfg)
		}
		servers[i] = newTestServer(t, cfg)
		ts := httptest.NewServer(servers[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	for i, srv := range servers {
		srv.SetPeers(urls[i], urls)
	}
	return servers, urls
}

// ownedBody returns format — a design request with one %d, its seed — at
// the first seed in 1..63 whose key srv's ring gives to the replica at url.
func ownedBody(t *testing.T, srv *Server, url, format string) string {
	t.Helper()
	for seed := 1; seed < 64; seed++ {
		body := fmt.Sprintf(format, seed)
		plan, err := srv.planRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		key, _, err := srv.requestKey(plan)
		if err != nil {
			t.Fatal(err)
		}
		if srv.ring.Load().owner(key) == url {
			return body
		}
	}
	t.Fatalf("no seed in 1..63 lands on %s", url)
	return ""
}

// sumCounter totals a counter across the fleet.
func sumCounter(servers []*Server, name string) int64 {
	var total int64
	for _, srv := range servers {
		total += srv.Metrics().Counter(name)
	}
	return total
}

// TestFleetSingleSynthesis is the sharding acceptance pin: the same key
// sent concurrently to all three replicas synthesizes exactly once
// fleet-wide — non-owners forward to the owner, whose singleflight collapses
// the arrivals — and every client receives byte-identical bytes.
func TestFleetSingleSynthesis(t *testing.T) {
	servers, urls := newFleet(t, 3, nil)

	const body = `{"benchmark":"CG","procs":16}`
	type result struct {
		status int
		body   []byte
	}
	results := make([]result, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			resp, b := postDesign(t, u, body)
			results[i] = result{status: resp.StatusCode, body: b}
		}(i, u)
	}
	wg.Wait()

	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("replica %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Errorf("replica %d body differs from replica 0", i)
		}
	}
	if got := sumCounter(servers, "synth.runs"); got != 1 {
		t.Errorf("fleet-wide synth.runs = %d, want exactly 1", got)
	}
	// Two of the three replicas are non-owners and forwarded.
	if got := sumCounter(servers, "serve.forwarded"); got != 2 {
		t.Errorf("fleet-wide serve.forwarded = %d, want 2", got)
	}

	// The owner — and only the owner — holds the design locally; fetching
	// the key from a non-owner forwards and still returns the exact bytes.
	hash := func() string {
		resp, _ := postDesign(t, urls[0], body)
		return resp.Header.Get("X-Nocd-Pattern-Hash")
	}()
	ring := servers[0].ring.Load()
	owner := ring.owner(hash)
	for i, srv := range servers {
		held := srv.mem.Len() == 1
		isOwner := urls[i] == owner
		if held != isOwner {
			t.Errorf("replica %d (owner=%v) holds %d entries", i, isOwner, srv.mem.Len())
		}
	}
	for i, u := range urls {
		resp, b := do(t, http.MethodGet, u+"/v1/design/"+hash, "")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(b, results[0].body) {
			t.Errorf("GET design/{key} via replica %d: status %d, %d bytes", i, resp.StatusCode, len(b))
		}
	}
}

// TestFleetOwnerRestartWithDataDir pins fleet durability: the owning
// replica restarts over its -data-dir and the key is still a fleet-wide
// cache hit — no replica re-enters Synthesize.
func TestFleetOwnerRestartWithDataDir(t *testing.T) {
	dirs := make([]string, 3)
	servers, urls := newFleet(t, 3, func(i int, cfg *Config) {
		dirs[i] = t.TempDir()
		cfg.DataDir = dirs[i]
	})

	const body = `{"benchmark":"CG","procs":16}`
	resp, b1 := postDesign(t, urls[0], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming: status %d: %s", resp.StatusCode, b1)
	}
	hash := resp.Header.Get("X-Nocd-Pattern-Hash")
	owner := servers[0].ring.Load().owner(hash)
	ownerIdx := -1
	for i, u := range urls {
		if u == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatal("owner not in fleet")
	}

	// "Restart" the owner: a fresh Server over the same data dir, serving
	// on the same URL via a swap-capable handler. httptest can't rebind the
	// port to a new server, so stand up the new instance and point the
	// fleet's membership at it.
	cfg := quickConfig()
	cfg.DataDir = dirs[ownerIdx]
	restarted := newTestServer(t, cfg)
	ts := httptest.NewServer(restarted)
	t.Cleanup(ts.Close)
	newURLs := append([]string(nil), urls...)
	newURLs[ownerIdx] = ts.URL
	newServers := append([]*Server(nil), servers...)
	newServers[ownerIdx] = restarted
	for i, srv := range newServers {
		srv.SetPeers(newURLs[i], newURLs)
	}
	// The ring hashes member URLs, so the owner may have moved; what must
	// hold is zero new syntheses when the new owner is the restarted
	// replica or any replica that can reach it. Pin the strong property on
	// the restarted replica directly first:
	dresp, db := postDesign(t, ts.URL, body)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart direct request: status %d: %s", dresp.StatusCode, db)
	}
	if got := dresp.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("post-restart cache disposition = %q, want hit (disk store not rebuilt)", got)
	}
	if !bytes.Equal(db, b1) {
		t.Error("post-restart replay is not byte-identical")
	}
	if got := restarted.Metrics().Counter("synth.runs"); got != 0 {
		t.Errorf("restarted replica synth.runs = %d, want 0", got)
	}
}

// TestFleetOwnerDownFallsBackLocal pins availability: when the key's owner
// is unreachable, the receiving replica synthesizes locally instead of
// failing — a down replica costs extra work, never an error.
func TestFleetOwnerDownFallsBackLocal(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A ring whose only member is a dead URL: this replica owns nothing and
	// forwards everything — to a peer that refuses connections.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	srv.SetPeers(ts.URL, []string{deadURL})

	resp, b := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with owner down: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("cache disposition = %q, want miss (local fallback synthesis)", got)
	}
	col := srv.Metrics()
	if got := col.Counter("serve.forward_error"); got != 1 {
		t.Errorf("serve.forward_error = %d, want 1", got)
	}
	if got := col.Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1", got)
	}
}

// TestFleetForwardLoopProtection pins the single-hop guarantee: a request
// already marked forwarded is handled locally even when this replica's
// ring says another member owns the key.
func TestFleetForwardLoopProtection(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Every key is owned by an unreachable peer, so an unforwarded request
	// would attempt (and fail) a forward; a forwarded one must not even try.
	srv.SetPeers(ts.URL, []string{"http://127.0.0.1:1"})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/design",
		bytes.NewReader([]byte(`{"benchmark":"CG","procs":16}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "http://elsewhere.example")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d", resp.StatusCode)
	}
	if got := srv.Metrics().Counter("serve.forward_error"); got != 0 {
		t.Errorf("serve.forward_error = %d, want 0 (forwarded request re-forwarded)", got)
	}
	if got := srv.Metrics().Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1 (handled locally)", got)
	}
}

// TestPeerRingProperties pins the consistent-hash basics every replica
// depends on: agreement (same members → same owner), ownership spread, and
// minimal remapping when a member leaves.
func TestPeerRingProperties(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := newPeerRing(members[0], members)
	r2 := newPeerRing(members[1], members)

	keys := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		keys = append(keys, "sha256:"+hex.EncodeToString(sum[:]))
	}
	owned := map[string]int{}
	for _, k := range keys {
		if o1, o2 := r1.owner(k), r2.owner(k); o1 != o2 {
			t.Fatalf("replicas disagree on owner of %s: %s vs %s", k, o1, o2)
		}
		owned[r1.owner(k)]++
	}
	for _, m := range members {
		if owned[m] == 0 {
			t.Errorf("member %s owns no keys out of %d", m, len(keys))
		}
	}

	// Removing one member must only remap the keys it owned.
	shrunk := newPeerRing(members[0], members[:2])
	for _, k := range keys {
		before, after := r1.owner(k), shrunk.owner(k)
		if before != members[2] && after != before {
			t.Errorf("key %s moved from %s to %s though its owner never left", k, before, after)
		}
	}

	// Normalization: trailing slashes, whitespace, duplicates, and empties
	// collapse to the same ring.
	messy := newPeerRing(members[0]+"/", []string{" http://a:1/", "http://b:2", "", "http://b:2/", "http://c:3"})
	for _, k := range keys[:50] {
		if messy.owner(k) != r1.owner(k) {
			t.Fatalf("normalized ring disagrees with canonical ring on %s", k)
		}
	}
	if newPeerRing("http://a:1", nil) != nil {
		t.Error("empty membership should disable the ring")
	}
}
