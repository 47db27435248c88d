package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/nas"
)

// withField adds a field to a request body's top-level object.
func withField(body, field string) string {
	return strings.TrimSuffix(body, "}") + "," + field + "}"
}

// resolveOK resolves body on srv and fails t unless it is a 200 with the
// given cache disposition.
func resolveOK(t *testing.T, srv *Server, body, cache string) itemResult {
	t.Helper()
	res := srv.resolve(context.Background(), []byte(body), false)
	if res.status != http.StatusOK || res.cache != cache {
		t.Fatalf("%.60s: status %d, cache %q, want a 200 %s (%s)", body, res.status, res.cache, cache, res.errMsg)
	}
	return res
}

// sameForms fails t unless two results hold the same response in both
// forms, up to the report's timings (bodyDigest).
func sameForms(t *testing.T, label string, got, want itemResult) {
	t.Helper()
	if bodyDigest(t, got.row) != bodyDigest(t, want.row) || bodyDigest(t, got.body) != bodyDigest(t, want.body) {
		t.Errorf("%s: the response differs from the reference server's", label)
	}
	if got.key != want.key || got.warm != want.warm {
		t.Errorf("%s: key %s, warm %q; the reference server's %s, %q", label, got.key, got.warm, want.key, want.warm)
	}
}

// TestModelMemoBytes: a miss served from a memoised model answers what a
// server that derives the model afresh answers, byte for byte but the
// report's timings, in both stored forms. For CG/16 by name, the jitter
// trace and ring-allreduce/64, the base request derives the model and then
// a new seed and a new max_degree (cold: no warm starts) and a warm-seeded
// miss (a new seed, seeded from the base's design) are served from it; the
// reference is a fresh server for the cold misses, and for the seeded one a
// server that primed the same base but keeps no model.
func TestModelMemoBytes(t *testing.T) {
	for _, c := range []struct{ name, body string }{
		{"CG/16", `{"benchmark":"CG","procs":16}`},
		{"jitter", jitterRequest(t)},
		{"ring-allreduce/64", ring64Body},
	} {
		t.Run(c.name, func(t *testing.T) {
			cold := quickConfig()
			cold.WarmThreshold = -1
			memo := newTestServer(t, cold)
			resolveOK(t, memo, c.body, "miss")
			for _, field := range []string{`"seed":2`, `"max_degree":6`} {
				body := withField(c.body, field)
				got := resolveOK(t, memo, body, "miss")
				sameForms(t, field, got, resolveOK(t, newTestServer(t, cold), body, "miss"))
			}

			warm := newTestServer(t, quickConfig())
			ref := newTestServer(t, quickConfig())
			ref.memo.budget = 0
			for _, srv := range []*Server{warm, ref} {
				resolveOK(t, srv, c.body, "miss")
			}
			body := withField(c.body, `"seed":3`)
			got := resolveOK(t, warm, body, "miss")
			if got.warm != "seeded" {
				t.Fatalf("the variant was %q, want seeded from the base", got.warm)
			}
			sameForms(t, "seeded", got, resolveOK(t, ref, body, "miss"))

			for _, srv := range []*Server{memo, warm} {
				if got := spanCount(srv.Metrics(), "serve.model"); got != 1 {
					t.Errorf("%d model derivations, want 1: the base's", got)
				}
				if got := srv.Metrics().Counter("serve.model_memo_hit"); got < 1 {
					t.Errorf("serve.model_memo_hit = %d: no miss was served from the model", got)
				}
			}
			if got := spanCount(ref.Metrics(), "serve.model"); got != 2 {
				t.Errorf("the reference derived %d models, want one per miss", got)
			}
		})
	}
}

// TestModelMemoConcurrent runs misses with distinct seeds on one inline trace
// at once, all served from the one model the first miss derived (run it
// under -race: they share the model's search kernel), and holds each
// response to the one a server without the model gives the same request
// alone. Warm starts are off, so no miss depends on which finished first.
func TestModelMemoConcurrent(t *testing.T) {
	cfg := quickConfig()
	cfg.WarmThreshold = -1
	cfg.MaxInFlight = 4
	body := jitterRequest(t)
	srv := newTestServer(t, cfg)
	resolveOK(t, srv, body, "miss")

	const n = 6
	got := make([]itemResult, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = srv.resolve(context.Background(), []byte(withField(body, fmt.Sprintf(`"seed":%d`, 10+i))), false)
		}()
	}
	wg.Wait()
	ref := newTestServer(t, cfg)
	ref.memo.budget = 0
	for i := range n {
		if got[i].status != http.StatusOK || got[i].cache != "miss" {
			t.Fatalf("seed %d: status %d, cache %q (%s)", 10+i, got[i].status, got[i].cache, got[i].errMsg)
		}
		sameForms(t, fmt.Sprintf("seed %d", 10+i), got[i], resolveOK(t, ref, withField(body, fmt.Sprintf(`"seed":%d`, 10+i)), "miss"))
	}
	col := srv.Metrics()
	if derived, hits := spanCount(col, "serve.model"), col.Counter("serve.model_memo_hit"); derived != 1 || hits != n {
		t.Errorf("%d model derivations and %d memo hits, want 1 and %d", derived, hits, n)
	}
	if got := col.Counter("serve.pattern_generated"); got != 1 {
		t.Errorf("serve.pattern_generated = %d, want 1: a miss served from the model decoded the trace", got)
	}
}

// TestModelMemoBudget: a model over the memo's budget is not kept, and the
// next miss on its pattern derives it again, with the same bytes.
func TestModelMemoBudget(t *testing.T) {
	cfg := quickConfig()
	cfg.WarmThreshold = -1
	srv := newTestServer(t, cfg)
	srv.memo.budget = 1024 // below CG/16's model
	resolveOK(t, srv, `{"benchmark":"CG","procs":16,"seed":2}`, "miss")
	if pm := srv.memo.model(memoID{workload: workloadID{benchmark: "CG", procs: 16}}); pm != nil {
		t.Fatalf("a model of weight %d was kept under a budget of %d", pm.core.weight, srv.memo.budget)
	}
	again := resolveOK(t, srv, `{"benchmark":"CG","procs":16,"seed":3}`, "miss")
	col := srv.Metrics()
	if derived, hits := spanCount(col, "serve.model"), col.Counter("serve.model_memo_hit"); derived != 2 || hits != 0 {
		t.Errorf("%d model derivations and %d memo hits, want 2 and 0", derived, hits)
	}
	if got := col.Counter("serve.pattern_generated"); got != 2 {
		t.Errorf("serve.pattern_generated = %d, want 2: the second miss had no model to skip its pattern", got)
	}
	sameForms(t, "seed 3", again, resolveOK(t, newTestServer(t, cfg), `{"benchmark":"CG","procs":16,"seed":3}`, "miss"))
}

// TestKeyMemoModelBudget drives the memo's weight bound directly: a model
// whose core the memo already holds shares it and adds no weight; keeping a
// new core evicts the oldest identities, models and all (a shared core
// stays while an entry holds it), until the retained weight fits; a core
// over the whole budget, a model whose identity left the memo, one whose
// identity would have to leave to make room, and a second model for an
// identity are not kept.
func TestKeyMemoModelBudget(t *testing.T) {
	id := func(i int) memoID { return memoID{workload: workloadID{benchmark: "CG", procs: 2 + i}} }
	model := func(core byte, weight int) *patternModel {
		return &patternModel{core: &modelCore{digest: [sha256.Size]byte{core}, weight: weight}}
	}
	km := newKeyMemo()
	km.budget = 10
	h := sha256.New()
	for i := range 6 {
		km.save(id(i), h)
	}
	check := func(step string, models []int, cores, weight int, gone ...int) {
		t.Helper()
		var got []int
		for i := range 6 {
			if km.model(id(i)) != nil {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(models) || len(km.cores) != cores || km.weight != weight {
			t.Fatalf("%s: models on %v, %d cores weighing %d; want %v, %d weighing %d",
				step, got, len(km.cores), km.weight, models, cores, weight)
		}
		for _, i := range gone {
			if _, ok := km.restore(id(i)); ok {
				t.Fatalf("%s: identity %d still in the memo", step, i)
			}
		}
	}

	km.keep(id(0), model(1, 4))
	km.keep(id(1), model(2, 4))
	km.keep(id(1), model(9, 1))
	check("two models", []int{0, 1}, 2, 8)
	km.keep(id(2), model(1, 4))
	if km.model(id(2)).core != km.model(id(0)).core {
		t.Fatal("identities 0 and 2 hold two cores with one digest")
	}
	check("a shared core", []int{0, 1, 2}, 2, 8)
	km.keep(id(3), model(3, 4))
	check("over the budget", []int{2, 3}, 2, 8, 0, 1)
	km.keep(id(4), model(4, 11))
	check("heavier than the budget", []int{2, 3}, 2, 8)
	km.keep(id(0), model(5, 1))
	check("an evicted identity", []int{2, 3}, 2, 8, 0)
	km.keep(id(5), model(5, 10))
	check("room for the whole budget", []int{5}, 1, 10, 2, 3)
	if _, ok := km.restore(id(4)); !ok {
		t.Fatal("identity 4, which held no model, was evicted before it had to be")
	}
	km.keep(id(4), model(6, 1))
	check("the oldest identity itself", []int{5}, 1, 10)
	if len(km.m) != 2 {
		t.Errorf("memo holds %d identities, want 2", len(km.m))
	}
}

// TestModelMemoSharesCores: CG/16 by name at two iteration counts and
// inline at a byte scale are three identities with one maximum clique set,
// so the first miss builds a core and the other two share it; each
// response is a fresh server's.
func TestModelMemoSharesCores(t *testing.T) {
	cfg := quickConfig()
	cfg.WarmThreshold = -1
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 2, ByteScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{`{"benchmark":"CG","procs":16}`, `{"benchmark":"CG","procs":16,"iterations":3}`, inlineRequest(t, p)}
	srv := newTestServer(t, cfg)
	for i, body := range bodies {
		sameForms(t, fmt.Sprint("identity ", i), resolveOK(t, srv, body, "miss"), resolveOK(t, newTestServer(t, cfg), body, "miss"))
	}
	if got := spanCount(srv.Metrics(), "serve.model"); got != 3 {
		t.Errorf("%d model derivations, want one per identity", got)
	}
	if len(srv.memo.cores) != 1 || len(srv.memo.m) != 3 {
		t.Errorf("memo holds %d cores for %d identities, want 1 for 3", len(srv.memo.cores), len(srv.memo.m))
	}
}

// TestHierMissBuildsPattern: a hier miss on a pattern whose model the memo
// holds derives no model but still builds its pattern, which the partition
// reads message by message.
func TestHierMissBuildsPattern(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	resolveOK(t, srv, `{"benchmark":"CG","procs":16}`, "miss")
	col := srv.Metrics()
	resolveOK(t, srv, hierCG16Body, "miss")
	if got := col.Counter("serve.pattern_generated"); got != 2 {
		t.Errorf("serve.pattern_generated = %d, want 2: the hier miss built no pattern", got)
	}
	if derived, hits := spanCount(col, "serve.model"), col.Counter("serve.model_memo_hit"); derived != 1 || hits != 1 {
		t.Errorf("%d model derivations and %d memo hits, want 1 and 1", derived, hits)
	}
}

// benchmarkJitterMiss times a flat miss on the jitter trace of the
// warm_variants ledger: each iteration a new seed, seeded from the nearest
// design the earlier ones stored. forget keeps every model out of the memo
// (forgetModels), so each leader decodes the trace and derives its model
// again, as it did before the memo kept models.
func benchmarkJitterMiss(b *testing.B, forget bool) {
	forgetModels = forget
	defer func() { forgetModels = false }()
	body := jitterRequest(b)
	srv := newTestServer(b, quickConfig())
	if res := srv.resolve(context.Background(), []byte(body), false); res.status != http.StatusOK {
		b.Fatalf("priming: status %d (%s)", res.status, res.errMsg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := srv.resolve(context.Background(), []byte(withField(body, fmt.Sprintf(`"seed":%d`, 1000+i))), false)
		if res.status != http.StatusOK || res.cache != "miss" {
			b.Fatalf("status %d, cache %q (%s)", res.status, res.cache, res.errMsg)
		}
	}
}

// BenchmarkJitterMissNoModelMemo and BenchmarkJitterMiss are the pair of the
// memo gate (make bench-memo).
func BenchmarkJitterMissNoModelMemo(b *testing.B) { benchmarkJitterMiss(b, true) }
func BenchmarkJitterMiss(b *testing.B)            { benchmarkJitterMiss(b, false) }
