package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
	if want.DSATUR == 0 {
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

// wideSpec is sixteen 65,536-processor groups in 217 bytes, over the
// 65,536 entries one cluster spec may expand to.
const wideSpec = "0-65535;65536-131071;131072-196607;196608-262143;262144-327679;327680-393215;393216-458751;458752-524287;" +
	"524288-589823;589824-655359;655360-720895;720896-786431;786432-851967;851968-917503;917504-983039;983040-1048575"

// TestDesignHierGroupOrderSharesKey: an explicit spec's group order is a
// spelling, so two orders of the same groups are one key and one synthesis.
func TestDesignHierGroupOrderSharesKey(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first, raw := postDesign(t, ts.URL, `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "0-7;8-15"}}`)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, raw)
	}
	runs := srv.Metrics().Counter("synth.runs")
	second, raw := postDesign(t, ts.URL, `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "8-15;0-7"}}`)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", second.StatusCode, raw)
	}
	if a, b := first.Header.Get("X-Nocd-Pattern-Hash"), second.Header.Get("X-Nocd-Pattern-Hash"); a != b {
		t.Errorf("pattern hashes %s and %s, want one", a, b)
	}
	if got := second.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("reordered groups: cache %q, want hit", got)
	}
	col := srv.Metrics()
	if got := col.Counter("serve.cache_miss"); got != 1 {
		t.Errorf("serve.cache_miss = %d, want 1", got)
	}
	if got := col.Counter("synth.runs"); got != runs {
		t.Errorf("synth.runs = %d after the second request, %d after the first", got, runs)
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

// TestDesignHierSpecOverBudget: a spec over the entry budget is a 400 when
// the request is planned, before any key, lookup or synthesis.
func TestDesignHierSpecOverBudget(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, raw := postDesign(t, ts.URL, `{"benchmark": "CG", "procs": 16, "hier": {"clusters": "`+wideSpec+`"}}`)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(raw, []byte(CodeBadRequest)) {
		t.Errorf("status %d: %s, want a 400 %s", resp.StatusCode, raw, CodeBadRequest)
	}
	if got := srv.Metrics().Counter("serve.cache_miss"); got != 0 {
		t.Errorf("serve.cache_miss = %d, want 0", got)
	}
}

// TestHierNoIInheritsNoCPinned holds "the NoI inherits the NoC options
// unless overridden" to what the server answered when it spelled the rule
// out itself: with and without NoI overrides, a hier request's key and
// response (bodyDigest) are those of the commit before hier.NoIOptions —
// the digests plus the synth.Stats MergesTried/MergesSkipped fields and
// counters the bodies have carried since (no other difference; CHANGES.md,
// PR 22), and with the stats.Coloring object folded into stats.DSATUR and
// the always-zero coloring.branch_and_bound and coloring.fallbacks counters
// gone, as branch-and-bound colouring left production.
func TestHierNoIInheritsNoCPinned(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, c := range []struct{ name, body, key, digest string }{
		{"inherited", `{"benchmark":"CG","procs":16,"max_degree":6,"hier":{"clusters":"blocks:4"}}`,
			"sha256:1c85893346c9e6db03971e895a97fb532b82a4ab82d0b79d22b476c2a96acc42", "bbaffb49221466975954c1905f33a42ed621df10980c6c2cd42a915d6c66b7f5"},
		{"overridden", `{"benchmark":"CG","procs":16,"max_degree":6,"hier":{"clusters":"blocks:4","noi_max_degree":4,"noi_max_procs":2}}`,
			"sha256:02ba64506b2c9587e3c04d04cd87222d5f10c8665228aab186de4a7b7f7e12f4", "fecf25222f6aae9fa28bf332c2804570de08d2025029997583316027c645cf94"},
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
