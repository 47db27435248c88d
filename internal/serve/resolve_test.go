package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// slowKey is what requestKey must equal: the plan's pattern built outright
// and put through Key.
func slowKey(t testing.TB, srv *Server, plan *designPlan) (string, error) {
	t.Helper()
	var pat *model.Pattern
	var err error
	if len(plan.trace) > 0 {
		pat, err = trace.Decode(bytes.NewReader(plan.trace))
	} else {
		pat, err = workloads.Generate(plan.workload.benchmark, plan.workload.procs, srv.workloadConfig(plan.workload))
	}
	if err != nil {
		return "", err
	}
	return Key(pat, plan.opt, plan.keyExtras()...), nil
}

// TestMemoKeyEqualsKey pins the memo's one contract: for every registry
// workload at its paper sizes, over iteration counts, option sets and
// flat/hier, the key reached through a cold memo, the key reached through a
// warm one and Key of the generated pattern are the same string.
func TestMemoKeyEqualsKey(t *testing.T) {
	type size struct {
		name  string
		procs []int
	}
	var sizes []size
	for _, n := range nas.Names() {
		small, large := nas.PaperProcs(n)
		sizes = append(sizes, size{n, []int{small, large}})
	}
	for _, n := range collective.Names() {
		small, large := collective.PaperNodes(n)
		sizes = append(sizes, size{n, []int{small, large, 64}})
	}
	knobs := []string{``, `,"seed":7,"max_degree":4,"restarts":3`}
	hiers := []string{``, `,"hier":{"clusters":"blocks:2","noi_max_degree":3}`}

	srv := newTestServer(t, quickConfig())
	for _, sz := range sizes {
		for _, procs := range sz.procs {
			for _, iters := range []int{0, 2, 5} {
				for _, kn := range knobs {
					for _, hr := range hiers {
						body := fmt.Sprintf(`{"benchmark":%q,"procs":%d,"iterations":%d%s%s}`, sz.name, procs, iters, kn, hr)
						plan, err := srv.planRequest([]byte(body))
						if err != nil {
							t.Fatalf("%s: %v", body, err)
						}
						want, err := slowKey(t, srv, plan)
						if err != nil {
							t.Fatalf("%s: %v", body, err)
						}
						// A server of its own is the cold memo; srv, after its
						// first variant of the workload, the warm one.
						cold := newTestServer(t, quickConfig())
						coldKey, pat, err := cold.requestKey(plan)
						if err != nil || pat == nil {
							t.Fatalf("%s: cold memo: pattern %v, err %v", body, pat, err)
						}
						gotKey, _, err := srv.requestKey(plan)
						if err != nil {
							t.Fatalf("%s: %v", body, err)
						}
						warmKey, pat, err := srv.requestKey(plan)
						if err != nil || pat != nil {
							t.Fatalf("%s: warm memo: pattern %v, err %v", body, pat, err)
						}
						if coldKey != want || gotKey != want || warmKey != want {
							t.Errorf("%s:\n cold %s\n then %s\n warm %s\n Key  %s", body, coldKey, gotKey, warmKey, want)
						}
					}
				}
			}
		}
	}
	col := srv.Metrics()
	if hit, miss := col.Counter("serve.keymemo_hit"), col.Counter("serve.keymemo_miss"); miss == 0 || hit <= miss {
		t.Errorf("serve.keymemo_hit = %d, serve.keymemo_miss = %d: one entry should serve every variant of a workload", hit, miss)
	}

	// The identity leaves the generator configs out, so a memo must not
	// outlive its server: another config, another key.
	other := quickConfig()
	other.Workload.ByteScale = 0.5
	plan, err := srv.planRequest([]byte(`{"benchmark":"CG","procs":16}`))
	if err != nil {
		t.Fatal(err)
	}
	k1, _, _ := srv.requestKey(plan)
	k2, _, _ := newTestServer(t, other).requestKey(plan)
	if k1 == "" || k1 == k2 {
		t.Errorf("servers with different Workload.ByteScale share key %q", k1)
	}
}

// TestHitBuildsNoPattern pins the laziness: once a workload has been seen,
// a store hit, a batch of hits and a request forwarded to its owner build no
// pattern, and nor does a flat memo hit whose design the store has
// meanwhile evicted: its flight leader synthesises the same bytes from the
// memoised model.
func TestHitBuildsNoPattern(t *testing.T) {
	const cg = `{"benchmark":"CG","procs":16}`
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	col := srv.Metrics()

	if resp, b := postDesign(t, ts.URL, cg); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status %d (%s)", resp.StatusCode, b)
	}
	if got := col.Counter("serve.pattern_generated"); got != 1 {
		t.Fatalf("serve.pattern_generated = %d after the miss, want 1", got)
	}

	resp, _ := postDesign(t, ts.URL, cg)
	if got := resp.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Fatalf("repeat: X-Nocd-Cache = %q, want hit", got)
	}
	batch := "[" + strings.TrimSuffix(strings.Repeat(cg+",", 16), ",") + "]"
	if _, rows := postBatch(t, ts.URL, batch); len(rows) != 16 {
		t.Fatalf("batch: %d rows, want 16", len(rows))
	}
	if got := col.Counter("serve.pattern_generated"); got != 1 {
		t.Errorf("serve.pattern_generated = %d after a hit and a batch of 16, want 1", got)
	}
	if got := col.Counter("serve.keymemo_hit"); got != 17 {
		t.Errorf("serve.keymemo_hit = %d, want 17", got)
	}

	t.Run("forwarding non-owner", func(t *testing.T) {
		servers, urls := newFleet(t, 2, nil)
		body := ownedBody(t, servers[0], urls[1], `{"benchmark":"CG","procs":16,"seed":%d}`)
		before := servers[0].Metrics().Counter("serve.pattern_generated")
		if resp, b := postDesign(t, urls[0], body); resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded request: status %d (%s)", resp.StatusCode, b)
		}
		if got := servers[0].Metrics().Counter("serve.forwarded"); got != 1 {
			t.Fatalf("serve.forwarded = %d on the non-owner, want 1", got)
		}
		if got := servers[0].Metrics().Counter("serve.pattern_generated"); got != before {
			t.Errorf("the non-owner generated %d patterns to forward a known workload, want 0", got-before)
		}
	})

	t.Run("memo hit, store evicted", func(t *testing.T) {
		cfg := quickConfig()
		cfg.CacheSize = 1
		cfg.WarmThreshold = -1 // cold both times, so the two bodies are comparable
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()

		_, first := postDesign(t, ts.URL, cg)
		if resp, b := postDesign(t, ts.URL, `{"benchmark":"FFT","procs":8}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("evicting request: status %d (%s)", resp.StatusCode, b)
		}
		resp, again := postDesign(t, ts.URL, cg)
		if got := resp.Header.Get("X-Nocd-Cache"); got != "miss" {
			t.Fatalf("after eviction: X-Nocd-Cache = %q, want miss", got)
		}
		col := srv.Metrics()
		if hit, gen := col.Counter("serve.keymemo_hit"), col.Counter("serve.pattern_generated"); hit != 1 || gen != 2 {
			t.Errorf("serve.keymemo_hit = %d, serve.pattern_generated = %d; want 1 and 2 (no build behind the memoised model)", hit, gen)
		}
		if bodyDigest(t, again) != bodyDigest(t, first) {
			t.Error("the synthesis from the memoised model differs from the first")
		}
	})
}

// TestInlineTraceMemo pins inline traces in the key memo, identified by a
// digest of their raw text: a repeat decodes nothing, a respelling takes a
// second entry but reaches the same key, a memo hit whose design was evicted
// re-synthesises the same bytes from the memoised model without decoding,
// and a trace past the procs bound is a 413 every time and never memoised.
func TestInlineTraceMemo(t *testing.T) {
	p, err := nas.Generate("MG", 8, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	inline := inlineRequest(t, p)
	var req DesignRequest
	if err := json.Unmarshal([]byte(inline), &req); err != nil {
		t.Fatal(err)
	}
	respelled, err := json.Marshal(DesignRequest{Trace: "# respelled\n\n" + strings.ReplaceAll(req.Trace, "\n", "\n\n")})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.CacheSize = 1
	cfg.WarmThreshold = -1 // cold every time, so bodies are comparable
	srv := newTestServer(t, cfg)
	col := srv.Metrics()
	resolve := func(body string) itemResult {
		t.Helper()
		return srv.resolve(context.Background(), []byte(body), false)
	}
	counts := func() [3]int64 {
		return [3]int64{col.Counter("serve.keymemo_hit"), col.Counter("serve.keymemo_miss"), col.Counter("serve.pattern_generated")}
	}

	first := resolve(inline)
	if first.status != http.StatusOK || first.cache != "miss" {
		t.Fatalf("first: status %d, cache %q (%s)", first.status, first.cache, first.errMsg)
	}
	if got := counts(); got != [3]int64{0, 1, 1} {
		t.Fatalf("after the first request: memo hits, misses, patterns = %v, want [0 1 1]", got)
	}

	t.Run("repeat", func(t *testing.T) {
		res := resolve(inline)
		if res.cache != "hit" || res.key != first.key {
			t.Errorf("repeat: cache %q, key %s; want a hit under %s", res.cache, res.key, first.key)
		}
		if got := counts(); got != [3]int64{1, 1, 1} {
			t.Errorf("memo hits, misses, patterns = %v, want [1 1 1]: the repeat decoded its trace", got)
		}
	})

	t.Run("respelled", func(t *testing.T) {
		res := resolve(string(respelled))
		if res.cache != "hit" || res.key != first.key {
			t.Errorf("respelling: cache %q, key %s; want a hit under %s", res.cache, res.key, first.key)
		}
		if got := len(srv.memo.m); got != 2 {
			t.Errorf("memo holds %d entries, want 2: one per spelling", got)
		}
	})

	t.Run("memo hit, store evicted", func(t *testing.T) {
		if res := resolve(`{"benchmark":"FFT","procs":8}`); res.status != http.StatusOK {
			t.Fatalf("evicting request: status %d (%s)", res.status, res.errMsg)
		}
		before := counts()
		res := resolve(inline)
		if res.status != http.StatusOK || res.cache != "miss" {
			t.Fatalf("after eviction: status %d, cache %q, want a 200 miss", res.status, res.cache)
		}
		if got := counts(); got[0] != before[0]+1 || got[2] != before[2] {
			t.Errorf("memo hits, patterns %v → %v: want one memo hit and no decode", before, got)
		}
		if bodyDigest(t, res.body) != bodyDigest(t, first.body) {
			t.Error("the leader's synthesis from the memoised model differs from the first")
		}
	})

	t.Run("past the procs bound", func(t *testing.T) {
		entries, before := len(srv.memo.m), counts()
		for try := 0; try < 3; try++ {
			if res := resolve(hugeProcsTrace); res.status != http.StatusRequestEntityTooLarge {
				t.Fatalf("try %d: status %d, want 413", try, res.status)
			}
		}
		if got := len(srv.memo.m); got != entries {
			t.Errorf("memo grew from %d to %d entries on a trace past the bound", entries, got)
		}
		if got := counts(); got != [3]int64{before[0], before[1] + 3, before[2]} {
			t.Errorf("memo hits, misses, patterns %v → %v; want three misses and nothing else", before, got)
		}
	})
}

// TestKeyMemoBounded floods a memo with distinct identities: it never grows
// past its capacity, evicts oldest first, and a re-saved identity takes no
// second slot.
func TestKeyMemoBounded(t *testing.T) {
	id := func(i int) memoID {
		return memoID{workload: workloadID{benchmark: "CG", procs: 2 + i%50, iterations: 1 + i/50}}
	}
	km := newKeyMemo()
	h := sha256.New()
	for i := 0; i < 5000; i++ {
		km.save(id(i), h)
		km.save(id(i), h)
		if n := len(km.m); n > keyMemoCap {
			t.Fatalf("memo holds %d entries after %d identities, capacity %d", n, i+1, keyMemoCap)
		}
	}
	// The same flood again from eight goroutines at once, readers among
	// them, changes nothing the memo promises (and gives -race a look).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := sha256.New()
			for i := g; i < 5000; i += 8 {
				km.save(id(i), mine)
				km.restore(id(5000 - i))
			}
		}(g)
	}
	wg.Wait()
	if n := len(km.m); n != keyMemoCap {
		t.Fatalf("memo holds %d entries after the concurrent flood, want %d", n, keyMemoCap)
	}
	for i := 0; i < 5000; i++ {
		km.save(id(i), h)
	}
	if n := len(km.m); n != keyMemoCap {
		t.Errorf("memo holds %d entries, want it full at %d", n, keyMemoCap)
	}
	for i := 0; i < 5000; i++ {
		if _, ok := km.restore(id(i)); ok != (i >= 5000-keyMemoCap) {
			t.Fatalf("identity %d of 5000: present = %t, want the newest %d kept", i, ok, keyMemoCap)
		}
	}
}

// fuzzTooBig reports a by-name body whose pattern the fuzz target should not
// build: inside the server's bounds but far beyond unit-test scale.
func fuzzTooBig(raw []byte) bool {
	var req DesignRequest
	if json.Unmarshal(raw, &req) != nil || req.Benchmark == "" {
		return false
	}
	inBounds := req.Procs <= maxRequestProcs && req.Iterations <= maxRequestIterations
	return inBounds && (req.Procs > 64 || req.Iterations > 8)
}

// FuzzDesignRequest drives raw /v1/design bodies through the request side of
// resolve — decode, validate, memo, key; no synthesis. It must never panic,
// fail only with the two client-error types, and any key it yields, cold or
// through the memo, must equal Key of the pattern built outright. A second
// pass, by name or inline, is a memo hit and builds no pattern.
func FuzzDesignRequest(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"CG","procs":16}`,
		`{"benchmark":"FFT","procs":8,"iterations":2,"seed":3,"restarts":1}`,
		`{"benchmark":"ring-allreduce","procs":64,"lane":"bulk"}`,
		`{"benchmark":"tree-broadcast","procs":12}`,
		`{"benchmark":"CG","procs":16,"iterations":1000000}`,
		`{"benchmark":"FFT","procs":65536}`,
		`{"benchmark":"CG","procs":16,"hier":{"clusters":"flow:4","noi_max_degree":3}}`,
		`{"benchmark":"CG","procs":16,"hier":{"clusters":"0-3;4-7@4,7"}}`,
		`{"trace":"noctrace v1\nname t\nprocs 2\nmsg 0 1 0 1 8\n"}`,
		`{"trace":"noctrace v1","benchmark":"CG"}`,
		hugeProcsTrace,
		`{"benchmark":"LU","procs":-1,"restarts":1000}`,
		`{"benchmark":"CG","procs":16,"max_degree":-1}`,
		`{"benchmark":"FFT","procs":8,"max_procs":-3}`,
		`{"bench":1}`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	srv := newTestServer(f, quickConfig())
	f.Fuzz(func(t *testing.T, raw []byte) {
		if fuzzTooBig(raw) {
			t.Skip()
		}
		plan, err := srv.planRequest(raw)
		var key string
		if err == nil {
			key, _, err = srv.requestKey(plan)
		}
		if err != nil {
			var bad *badRequestError
			var big *tooLargeError
			if !errors.As(err, &bad) && !errors.As(err, &big) {
				t.Fatalf("%q: error %v (%T) is neither client-error type", raw, err, err)
			}
			return
		}
		if plan.opt.MaxDegree < 0 || plan.opt.MaxProcsPerSwitch < 0 {
			t.Fatalf("%q: accepted negative constraints %+v", raw, plan.opt.Constraints)
		}
		want, err := slowKey(t, srv, plan)
		if err != nil || key != want {
			t.Fatalf("%q: key %s, Key %s (err %v)", raw, key, want, err)
		}
		if again, pat, err := srv.requestKey(plan); err != nil || again != want || pat != nil {
			t.Fatalf("%q: second pass: key %s, want %s, pattern %v, err %v", raw, again, want, pat, err)
		}
	})
}

// primedHit returns a server holding the design for body, so that
// resolve(body) is a by-name (or inline) hit from the memory store.
func primedHit(tb testing.TB, body string) *Server {
	tb.Helper()
	srv := newTestServer(tb, quickConfig())
	if res := srv.resolve(context.Background(), []byte(body), false); res.status != http.StatusOK {
		tb.Fatalf("priming %.60s: status %d (%s)", body, res.status, res.errMsg)
	}
	return srv
}

func benchmarkResolveHit(b *testing.B, body string) {
	srv := primedHit(b, body)
	raw := []byte(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := srv.resolve(context.Background(), raw, false); res.cache != "hit" {
			b.Fatalf("disposition %q, want hit", res.cache)
		}
	}
}

const largeHitBody = `{"benchmark":"ring-allreduce","procs":64}`

func BenchmarkResolveHitSmall(b *testing.B) { benchmarkResolveHit(b, `{"benchmark":"CG","procs":16}`) }
func BenchmarkResolveHitLarge(b *testing.B) { benchmarkResolveHit(b, largeHitBody) }
func BenchmarkResolveHitInline(b *testing.B) {
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkResolveHit(b, inlineRequest(b, p))
}

// diskHitBodies are two designs a server with a one-entry memory LRU serves
// alternately, so that every lookup misses memory and reads its file.
var diskHitBodies = [][]byte{[]byte(`{"benchmark":"CG","procs":16}`), []byte(`{"benchmark":"FFT","procs":8}`)}

// primedDiskHits returns a server over a fresh data dir, with a one-entry
// memory LRU, holding the designs for diskHitBodies.
func primedDiskHits(tb testing.TB) *Server {
	tb.Helper()
	cfg := quickConfig()
	cfg.CacheSize = 1
	cfg.DataDir = tb.TempDir()
	srv := newTestServer(tb, cfg)
	for _, body := range diskHitBodies {
		if res := srv.resolve(context.Background(), body, false); res.status != http.StatusOK {
			tb.Fatalf("priming %s: status %d (%s)", body, res.status, res.errMsg)
		}
	}
	return srv
}

// BenchmarkResolveHitDisk is a by-name hit served from the disk store: read
// the file, decode its header, check the layout and the checksum.
func BenchmarkResolveHitDisk(b *testing.B) {
	srv := primedDiskHits(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := srv.resolve(context.Background(), diskHitBodies[i%2], false); res.cache != "hit" {
			b.Fatalf("disposition %q, want hit", res.cache)
		}
	}
	b.StopTimer()
	if got := srv.Metrics().Counter("serve.store_disk_hit"); got < int64(b.N) {
		b.Fatalf("%d disk hits in %d lookups: memory served some", got, b.N)
	}
}

// discardWriter is a flushable ResponseWriter that keeps nothing, so a
// handler benchmark measures the handler and not a growing recorder.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Flush()                      {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// batchHit16 is a POST /v1/designs body of sixteen by-name hits over four
// designs; primedBatchHit returns a server holding them.
var batchHit16 = func() []byte {
	items := make([]string, 16)
	for i := range items {
		items[i] = fmt.Sprintf(`{"benchmark":"CG","procs":16,"seed":%d}`, 1+i%4)
	}
	return []byte("[" + strings.Join(items, ",") + "]")
}()

func primedBatchHit(tb testing.TB) *Server {
	tb.Helper()
	srv := newTestServer(tb, quickConfig())
	serveBatchHit16(tb, srv)
	if got := srv.Metrics().Counter("synth.runs"); got != 4 {
		tb.Fatalf("synth.runs = %d after priming, want 4", got)
	}
	return srv
}

// serveBatchHit16 sends batchHit16 through srv's handler.
func serveBatchHit16(tb testing.TB, srv *Server) {
	w := &discardWriter{h: http.Header{}}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/designs", bytes.NewReader(batchHit16)))
	if w.n == 0 {
		tb.Fatal("the batch wrote nothing")
	}
}

// BenchmarkBatchHit16 is a batch of sixteen memory hits through the handler:
// sixteen resolves, each row written straight from the stored compact form.
func BenchmarkBatchHit16(b *testing.B) {
	srv := primedBatchHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBatchHit16(b, srv)
	}
}

// TestResolveLargeHitAllocs holds a warm ring-allreduce/64 by-name hit
// under a fixed allocation ceiling. Before the key memo the hit rebuilt the
// 16,128-message pattern (1,332 allocations, 1.9 MB); now it decodes a
// 42-byte body, restores a hash and formats a fingerprint — 21 allocations
// when this was written.
func TestResolveLargeHitAllocs(t *testing.T) {
	srv := primedHit(t, largeHitBody)
	raw := []byte(largeHitBody)
	allocs := testing.AllocsPerRun(50, func() {
		if res := srv.resolve(context.Background(), raw, false); res.cache != "hit" {
			t.Fatalf("disposition %q, want hit", res.cache)
		}
	})
	const ceiling = 32
	if allocs > ceiling {
		t.Errorf("a large by-name hit allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	if got := srv.Metrics().Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1", got)
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports the bytes.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestResolveHitDiskAllocs holds a by-name hit served from the disk store
// under fixed ceilings. When this was written it made 55 allocations and
// 18.0 KB per hit against 12.6 KB files: the file read once, its header
// decoded and re-encoded, and 2 KB of resolve. The version-1 layout, which
// JSON-decoded the base64 body out of the file, made 25.1 KB against 11.9
// KB files; any pass that copies the body out again breaks the byte
// ceiling, the file's size plus 8 KB.
func TestResolveHitDiskAllocs(t *testing.T) {
	srv := primedDiskHits(t)
	i := 0
	allocs, bytes := allocsPerRun(100, func() {
		if res := srv.resolve(context.Background(), diskHitBodies[i%2], false); res.cache != "hit" {
			t.Fatalf("disposition %q, want hit", res.cache)
		}
		i++
	})
	des, err := os.ReadDir(srv.cfg.DataDir)
	if err != nil || len(des) != len(diskHitBodies) {
		t.Fatalf("data dir: %d files (err %v), want %d", len(des), err, len(diskHitBodies))
	}
	var files int64
	for _, de := range des {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		files += fi.Size()
	}
	const ceiling = 64
	if allocs > ceiling {
		t.Errorf("a disk hit allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	if limit := float64(files)/float64(len(des)) + 8<<10; bytes > limit {
		t.Errorf("a disk hit allocates %.0f bytes, ceiling %.0f (the file's size plus 8 KB)", bytes, limit)
	}
}

// TestBatchHit16Allocs holds a batch of sixteen memory hits under a fixed
// allocation ceiling — 413 allocations when this was written (439 under
// -race), 16 resolves of 21 and the handler's own — and pins that writing a
// 200 row allocates nothing. Encoding each such row through json.Encoder, as
// a BatchRow, boxed the row: one allocation a row, 429 a batch.
func TestBatchHit16Allocs(t *testing.T) {
	srv := primedBatchHit(t)
	allocs, _ := allocsPerRun(100, func() { serveBatchHit16(t, srv) })
	const ceiling = 448
	if allocs > ceiling {
		t.Errorf("a batch of sixteen hits allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	if got := srv.Metrics().Counter("synth.runs"); got != 4 {
		t.Errorf("synth.runs = %d, want 4", got)
	}
	res := srv.resolve(context.Background(), []byte(`{"benchmark":"CG","procs":16,"seed":1}`), false)
	re := rowEncoders.Get().(*rowEncoder)
	defer rowEncoders.Put(re)
	re.encode(0, res)
	if allocs := testing.AllocsPerRun(100, func() { re.encode(1, res) }); allocs != 0 {
		t.Errorf("writing a 200 row allocates %.0f times, want 0", allocs)
	}
}

// TestLeaderRechecksMemory forces the interleaving in which a request's
// store lookup misses, a second request for the same key then synthesises,
// stores its entry and leaves the flight, and only after that does the first
// request join the flight for the key. The first request leads a new flight,
// which must find the stored entry in memory and serve it instead of
// synthesising the key a second time, with no serve counter moved.
func TestLeaderRechecksMemory(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	body := []byte(`{"benchmark":"CG","procs":16,"seed":1}`)
	var second itemResult
	afterLookupMiss = func(string) {
		afterLookupMiss = nil // the second request goes straight through
		second = srv.resolve(context.Background(), body, false)
	}
	defer func() { afterLookupMiss = nil }()
	first := srv.resolve(context.Background(), body, false)
	if first.status != http.StatusOK || second.status != http.StatusOK {
		t.Fatalf("statuses %d and %d, want 200: %s %s", first.status, second.status, first.errMsg, second.errMsg)
	}
	if second.cache != "miss" || first.cache != "hit" {
		t.Errorf("X-Nocd-Cache %q for the request that synthesised and %q for the one that waited, want miss and hit", second.cache, first.cache)
	}
	if !bytes.Equal(first.body, second.body) {
		t.Error("the request that waited was not served the stored bytes")
	}
	col := srv.Metrics()
	for name, want := range map[string]int64{
		"synth.runs":           1,
		"serve.cache_miss":     1,
		"serve.cache_hit":      0,
		"serve.store_mem_miss": 2,
		"serve.store_mem_hit":  0,
	} {
		if got := col.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
