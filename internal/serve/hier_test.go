package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/coloring"
	"repro/internal/hier"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// TestDesignHier posts a two-level request and checks the full surface: a
// hier-design v1 document that loads through hier.LoadDesign, the hier
// summary block, composite resource counts, and a cache hit on repeat.
func TestDesignHier(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "flow:4"}}`
	resp, raw := postDesign(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("first request cache %q, want miss", got)
	}
	var dr DesignResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if dr.Hier == nil {
		t.Fatal("hier response missing the hier summary")
	}
	if dr.Hier.Clusters != "flow:4" || dr.Hier.ClusterCount != 4 {
		t.Errorf("summary = %+v", dr.Hier)
	}
	if dr.Hier.NoISwitches <= 0 {
		t.Errorf("summary reports %d NoI switches", dr.Hier.NoISwitches)
	}
	if !dr.ContentionFree {
		t.Error("two-level CG-16 design not contention-free")
	}
	d, err := hier.LoadDesign(bytes.NewReader(dr.Design))
	if err != nil {
		t.Fatalf("embedded design is not hier-design v1: %v", err)
	}
	if len(d.Chiplets) != 4 || d.NoI == nil {
		t.Fatalf("loaded design has %d chiplets, NoI=%v", len(d.Chiplets), d.NoI != nil)
	}
	if dr.Switches != d.TotalSwitches() || dr.Links != d.TotalLinks() {
		t.Errorf("response counts %d/%d, design %d/%d",
			dr.Switches, dr.Links, d.TotalSwitches(), d.TotalLinks())
	}

	// The response's stats are the sum over the levels of the same
	// synthesis run directly, colouring effort included.
	plan, err := srv.planRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	pat, err := workloads.Generate(plan.workload.benchmark, plan.workload.procs, srv.workloadConfig(plan.workload))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := hier.Synthesize(pat, plan.hierOptions(plan.opt))
	if err != nil {
		t.Fatal(err)
	}
	var want synth.Stats
	for _, lv := range direct.Levels() {
		want.Add(lv.Result.Stats)
	}
	if want.Coloring == (coloring.Stats{}) {
		t.Fatal("no level of the workload ran the colourer: the check below has no power")
	}
	if dr.Stats != want {
		t.Errorf("response stats %+v, sum over levels %+v", dr.Stats, want)
	}

	resp2, raw2 := postDesign(t, ts.URL, body)
	if got := resp2.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("repeat request cache %q, want hit", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("cached hier response bytes differ from the original")
	}
}

// TestDesignHierKeying pins the cache-key rules: a hier request never
// collides with the flat request for the same workload, equivalent cluster
// specs share an entry, and different specs do not.
func TestDesignHierKeying(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	flatResp, _ := postDesign(t, ts.URL, `{"benchmark": "CG", "procs": 16}`)
	hierResp, _ := postDesign(t, ts.URL, `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "4"}}`)
	if flatResp.Header.Get("X-Nocd-Pattern-Hash") == hierResp.Header.Get("X-Nocd-Pattern-Hash") {
		t.Error("flat and hier requests share a cache key")
	}
	if got := hierResp.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("hier request after flat one: cache %q, want miss", got)
	}

	// "flow:4" spells the same partition as "4": must hit.
	same, _ := postDesign(t, ts.URL, `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "flow:4"}}`)
	if got := same.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("equivalent cluster spec: cache %q, want hit", got)
	}
	other, _ := postDesign(t, ts.URL, `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "blocks:4"}}`)
	if got := other.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("different cluster spec: cache %q, want miss", got)
	}
}

// TestDesignHierBadRequests pins the typed 400s: grammar errors at parse
// time, partition errors against the concrete pattern at synthesis time,
// and malformed knobs.
func TestDesignHierBadRequests(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for name, body := range map[string]string{
		"empty clusters": `{"benchmark": "CG", "procs": 16, "hier": {"clusters": ""}}`,
		"bad grammar":    `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "banana"}}`,
		"zero count":     `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "flow:0"}}`,
		"too many":       `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "blocks:99"}}`,
		"not covering":   `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "0-3;4-7"}}`,
		"out of range":   `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "0-9;10-19"}}`,
		"negative knob":  `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "4", "gateway_width": -1}}`,
		"unknown field":  `{"benchmark": "CG", "procs": 16, "hier": {"clusterz": "4"}}`,
	} {
		resp, raw := postDesign(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, raw)
			continue
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != CodeBadRequest {
			t.Errorf("%s: not the typed bad-request envelope: %s", name, raw)
		}
	}
}

// TestHierNoIInheritsNoCPinned holds "the NoI inherits the NoC options
// unless overridden" to what the server answered when it spelled the rule
// out itself: with and without NoI overrides, a hier request's key and
// response (bodyDigest) are those of the commit before hier.NoIOptions —
// the digests plus the synth.Stats MergesTried/MergesSkipped fields and
// counters the bodies have carried since (no other difference; CHANGES.md,
// PR 22).
func TestHierNoIInheritsNoCPinned(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, c := range []struct{ name, body, key, digest string }{
		{"inherited", `{"benchmark":"CG","procs":16,"max_degree":6,"hier":{"clusters":"blocks:4"}}`,
			"sha256:1c85893346c9e6db03971e895a97fb532b82a4ab82d0b79d22b476c2a96acc42", "a5935a3a46497251129c90c3afe5d9bc404c25a0ab39be96ab5b575079d3c619"},
		{"overridden", `{"benchmark":"CG","procs":16,"max_degree":6,"hier":{"clusters":"blocks:4","noi_max_degree":4,"noi_max_procs":2}}`,
			"sha256:02ba64506b2c9587e3c04d04cd87222d5f10c8665228aab186de4a7b7f7e12f4", "44cb6ac5b9cd3bbe5c42266bd2e77f555517ca7e7002fa8e2cb17ada5ea56cba"},
	} {
		resp, body := postDesign(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Nocd-Pattern-Hash"); got != c.key {
			t.Errorf("%s: key %s, want %s", c.name, got, c.key)
		}
		if got := bodyDigest(t, body); got != c.digest {
			t.Errorf("%s: response digest %s, want %s", c.name, got, c.digest)
		}
	}
}
