package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// TestDiskStoreSurvivesRestart is the durability acceptance pin: a design
// synthesized by one server instance is served as a cache hit by a fresh
// instance over the same -data-dir, byte-identically and without
// re-entering Synthesize, with the warm index rebuilt from the scan.
func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.DataDir = dir

	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	const body = `{"benchmark":"CG","procs":16}`
	resp1, b1 := postDesign(t, ts1.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first instance: status %d: %s", resp1.StatusCode, b1)
	}
	ts1.Close()
	if got := srv1.Metrics().Counter("serve.store_disk_write"); got != 1 {
		t.Fatalf("serve.store_disk_write = %d, want 1", got)
	}

	// "Restart": a brand-new server over the same directory.
	srv2 := newTestServer(t, cfg)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	col := srv2.Metrics()
	if got := col.Counter("serve.store_disk_scanned"); got != 1 {
		t.Fatalf("serve.store_disk_scanned = %d, want 1", got)
	}
	if got := col.Counter("serve.warm_rebuilt"); got != 1 {
		t.Errorf("serve.warm_rebuilt = %d, want 1 (warm index not rebuilt from disk)", got)
	}
	if got := srv2.warm.size(); got != 1 {
		t.Errorf("warm index holds %d entries after restart, want 1", got)
	}

	resp2, b2 := postDesign(t, ts2.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart request: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("post-restart cache header = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("post-restart replay is not byte-identical")
	}
	if got := col.Counter("synth.runs"); got != 0 {
		t.Errorf("synth.runs = %d after restart hit, want 0", got)
	}
	// The hit came off disk and was promoted into memory.
	if got := col.Counter("serve.store_disk_hit"); got != 1 {
		t.Errorf("serve.store_disk_hit = %d, want 1", got)
	}
	if resp3, _ := postDesign(t, ts2.URL, body); resp3.Header.Get("X-Nocd-Cache") != "hit" {
		t.Error("second post-restart request missed")
	}
	if got := col.Counter("serve.store_mem_hit"); got != 1 {
		t.Errorf("serve.store_mem_hit = %d, want 1 (promotion did not stick)", got)
	}
}

// TestDiskStoreSkipsCorruption pins the crash-safety scan: a truncated
// entry file and a stray temp file — the footprint of a crash between
// temp-write and rename — are both skipped and counted, never served, and
// the key re-synthesizes cleanly.
func TestDiskStoreSkipsCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.DataDir = dir

	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	const body = `{"benchmark":"CG","procs":16}`
	postDesign(t, ts1.URL, body)
	ts1.Close()

	// Corrupt the one entry file (truncate to half) and fake an interrupted
	// write alongside it.
	des, err := os.ReadDir(dir)
	if err != nil || len(des) != 1 {
		t.Fatalf("ReadDir: %v (%d entries, want 1)", err, len(des))
	}
	path := filepath.Join(dir, des[0].Name())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, storeTempPrefix+"123456"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, cfg)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	col := srv2.Metrics()
	if got := col.Counter("serve.store_disk_corrupt"); got != 2 {
		t.Errorf("serve.store_disk_corrupt = %d, want 2 (truncated + stray temp)", got)
	}
	if got := col.Counter("serve.store_disk_scanned"); got != 0 {
		t.Errorf("serve.store_disk_scanned = %d, want 0", got)
	}

	// The key is gone; the server must synthesize it afresh, not serve the
	// corrupt bytes.
	resp, _ := postDesign(t, ts2.URL, body)
	if got := resp.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("post-corruption cache header = %q, want miss", got)
	}
	if got := col.Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1", got)
	}
}

// TestDiskStoreGetRevalidates pins read-time verification: an entry that
// rots after the startup scan reads as a miss (counted as corruption), so
// the worst failure mode is a redundant synthesis, never bad bytes.
func TestDiskStoreGetRevalidates(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.CacheSize = -1 // no memory layer: every lookup goes to disk
	cfg.WarmThreshold = -1
	cfg.DataDir = dir
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"benchmark":"CG","procs":16}`
	postDesign(t, ts.URL, body)
	des, _ := os.ReadDir(dir)
	if len(des) != 1 {
		t.Fatalf("%d entry files, want 1", len(des))
	}
	path := filepath.Join(dir, des[0].Name())
	raw, _ := os.ReadFile(path)
	// Flip one bit of the first body byte: the header still parses, the
	// checksum fails.
	raw[bytes.IndexByte(raw, '\n')+1] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	resp, _ := postDesign(t, ts.URL, body)
	if got := resp.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("rotted entry served: cache header = %q, want miss", got)
	}
	if got := srv.Metrics().Counter("serve.store_disk_corrupt"); got == 0 {
		t.Error("serve.store_disk_corrupt = 0, want > 0")
	}
}

// TestDiskStoreFileNames pins the key→filename mapping: canonical keys map
// to their bare hex, anything else is re-hashed so it cannot escape the
// directory or collide with temp names.
func TestDiskStoreFileNames(t *testing.T) {
	hex64 := strings.Repeat("ab", 32)
	if got := fileName("sha256:" + hex64); got != hex64+storeSuffix {
		t.Errorf("canonical key filename = %q", got)
	}
	for _, k := range []string{"../../etc/passwd", "sha256:NOTHEX", "sha256:" + strings.Repeat("A", 64), "tmp-evil"} {
		got := fileName(k)
		if strings.ContainsAny(got, "/\\") || strings.HasPrefix(got, storeTempPrefix) || !strings.HasSuffix(got, storeSuffix) {
			t.Errorf("fileName(%q) = %q escapes or collides", k, got)
		}
	}
}

// TestDiskStoreUnusableDir pins that New fails loudly when the data dir
// cannot be created, rather than silently serving without durability.
func TestDiskStoreUnusableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.DataDir = filepath.Join(file, "sub") // parent is a file: MkdirAll fails
	if _, err := New(cfg); err == nil {
		t.Fatal("New succeeded with an unusable data dir")
	}
}

// TestDiskWriteFailureNeverIndexed: with a data dir, the disk store is the
// layer the warm index trusts to hold every key, and the index is never
// pruned. A design the disk refused must therefore stay out of the index —
// it would otherwise outlive its memory entry as a seed no layer can serve,
// one more per failed write. The response itself is unaffected.
func TestDiskWriteFailureNeverIndexed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := quickConfig()
	cfg.DataDir = dir
	cfg.CacheSize = 2
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := os.RemoveAll(dir); err != nil { // disk full, directory gone: every Put fails
		t.Fatal(err)
	}

	const n = 5 // > CacheSize, so the LRU evicts
	for seed := 1; seed <= n; seed++ {
		resp, b := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16,"seed":`+strconv.Itoa(seed)+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, b)
		}
		assertDesignOK(t, b)
	}
	col := srv.Metrics()
	if got := col.Counter("serve.store_disk_error"); got != n {
		t.Errorf("serve.store_disk_error = %d, want %d", got, n)
	}
	if got := col.Counter("serve.cache_store"); got != 0 {
		t.Errorf("serve.cache_store = %d, want 0: no write reached the authoritative layer", got)
	}
	if got := srv.warm.size(); got > cfg.CacheSize {
		t.Errorf("warm index holds %d entries, more than the %d designs any layer can serve", got, cfg.CacheSize)
	}
	// The newest design is still replayed from memory.
	if resp, _ := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16,"seed":`+strconv.Itoa(n)+`}`); resp.Header.Get("X-Nocd-Cache") != "hit" {
		t.Errorf("repeat of the last request: X-Nocd-Cache = %q, want hit", resp.Header.Get("X-Nocd-Cache"))
	}
}

// v1File renders body under key as the version-1 store wrote it: one JSON
// document, the body base64 inside it and checksummed on its own.
func v1File(t testing.TB, key string, body []byte) []byte {
	t.Helper()
	sum := sha256.Sum256(body)
	b, err := json.Marshal(struct {
		Schema     string `json:"schema"`
		Version    int    `json:"version"`
		Key        string `json:"key"`
		BodySHA256 string `json:"body_sha256"`
		Body       []byte `json:"body"`
	}{storeSchema, 1, key, hex.EncodeToString(sum[:]), body})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDiskStoreUpgradesV1 pins the upgrade from the version-1 layout: a v1
// file is skipped at start and counted as corrupt, its key misses and
// re-synthesises what a fresh server returns, and the rewrite — the same
// file name, now v2 — starts clean the next time.
func TestDiskStoreUpgradesV1(t *testing.T) {
	const body = `{"benchmark":"CG","procs":16}`
	want := newTestServer(t, quickConfig()).resolve(context.Background(), []byte(body), false)
	if want.status != http.StatusOK {
		t.Fatalf("fresh server: status %d (%s)", want.status, want.errMsg)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, fileName(want.key))
	if err := os.WriteFile(path, v1File(t, want.key, want.body), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := quickConfig()
	cfg.DataDir = dir
	srv := newTestServer(t, cfg)
	if got := srv.Metrics().Counter("serve.store_disk_corrupt"); got != 1 {
		t.Errorf("serve.store_disk_corrupt = %d over a v1 file, want 1", got)
	}
	res := srv.resolve(context.Background(), []byte(body), false)
	if res.status != http.StatusOK || res.cache != "miss" || res.key != want.key {
		t.Fatalf("v1 key: status %d, cache %q, key %s; want a 200 miss under %s", res.status, res.cache, res.key, want.key)
	}
	if bodyDigest(t, res.body) != bodyDigest(t, want.body) {
		t.Error("the re-synthesised design differs from a fresh server's")
	}
	des, err := os.ReadDir(dir)
	if err != nil || len(des) != 1 || des[0].Name() != filepath.Base(path) {
		t.Fatalf("data dir after the rewrite: %v (err %v), want only %s", des, err, filepath.Base(path))
	}
	if raw, _ := os.ReadFile(path); !bytes.Contains(raw[:bytes.IndexByte(raw, '\n')+1], []byte(`"version":2,`)) {
		t.Errorf("the rewrite is not a v2 file: %.120s", raw)
	}

	again := newTestServer(t, cfg)
	col := again.Metrics()
	if corrupt, scanned := col.Counter("serve.store_disk_corrupt"), col.Counter("serve.store_disk_scanned"); corrupt != 0 || scanned != 1 {
		t.Errorf("next start: %d corrupt, %d scanned; want 0 and 1", corrupt, scanned)
	}
	if hit := again.resolve(context.Background(), []byte(body), false); hit.cache != "hit" || !bytes.Equal(hit.body, res.body) {
		t.Errorf("next start: cache %q, byte-identical %t; want a hit on the rewritten bytes", hit.cache, bytes.Equal(hit.body, res.body))
	}
}

// FuzzDiskStoreLoad feeds arbitrary bytes to the disk store's file parser
// as the entry file of one fixed key, so mutations of the seeds — real v2
// entries written by Put, with and without a fingerprint — keep the
// key↔filename binding and reach the checks after it. The other seeds must
// be rejected: a v1 document, and real entries with a respaced header, an
// unknown warm disposition, or body_len moved by one. A file load accepts
// must be one Put could have written: its key is the file's, its body and
// row are not empty, its warm disposition is one the server writes, and
// its fingerprint is shaped like one trace.FingerprintCliques builds — a
// segment per processor, a signature per clique — so the warm index's
// Distance scans cost no more than the file's own length. Three properties
// hold of it: Put writes the entry load yields back byte for byte (a fixed
// point); flipping any one byte of the body or row makes load fail (the
// checksum covers every byte a hit serves); and so does any other body_len
// (the layout pins where the body ends, which the checksum does not).
func FuzzDiskStoreLoad(f *testing.F) {
	key := "sha256:" + strings.Repeat("ab", 32)
	fp := trace.FingerprintPattern(trace.BuildPhased("seed", 4, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1), model.F(2, 3)}, Bytes: 64},
		{Flows: []model.Flow{model.F(1, 2)}, Bytes: 64},
	}))
	d := &diskStore{dir: f.TempDir(), keys: make(map[string]struct{})}
	path := d.path(key)
	var real [][]byte
	for _, e := range []*Entry{
		{Key: key, Body: []byte("{\n  \"design\": {}\n}\n"), Row: []byte(`{"design":{}}`), Warm: "seeded", Fp: fp},
		{Key: key, Body: []byte("{}\n"), Row: []byte("{}")},
	} {
		if !d.Put(e) {
			f.Fatal("seed Put failed")
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := d.load(path); err != nil {
			f.Fatalf("load rejects what Put wrote: %v", err)
		}
		real = append(real, b)
	}
	for i, b := range append(real,
		v1File(f, key, []byte("{}\n")),
		bytes.Replace(real[0], []byte(`":`), []byte(`": `), 1),
		bytes.Replace(real[0], []byte(`"warm":"seeded"`), []byte(`"warm":"seedex"`), 1),
		withBodyLen(f, real[0], 1),
	) {
		f.Add(b)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			f.Fatal(err)
		}
		if _, err := d.load(path); (err == nil) != (i < len(real)) {
			f.Fatalf("seed %d: load error %v; want none for the %d Put wrote and one for every other", i, err, len(real))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &diskStore{dir: t.TempDir(), keys: make(map[string]struct{})}
		path := d.path(key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ent, err := d.load(path)
		if err != nil {
			return
		}
		if ent.Key != key || len(ent.Body) == 0 || len(ent.Row) == 0 {
			t.Fatalf("load accepted key %q with a %d-byte body and a %d-byte row", ent.Key, len(ent.Body), len(ent.Row))
		}
		if ent.Warm != "" && ent.Warm != "cold" && ent.Warm != "seeded" {
			t.Fatalf("load accepted warm disposition %q", ent.Warm)
		}
		if fp := ent.Fp; fp != nil {
			if len(fp.Segments) != fp.Procs || len(fp.CliqueSigs) != fp.Cliques {
				t.Fatalf("load accepted a fingerprint of %d processors and %d cliques with %d segments and %d signatures",
					fp.Procs, fp.Cliques, len(fp.Segments), len(fp.CliqueSigs))
			}
			if dist := fp.Distance(fp); dist != 0 {
				t.Fatalf("fingerprint is %v from itself", dist)
			}
		}
		if !d.Put(ent) {
			t.Fatal("Put failed")
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("Put of the accepted entry wrote %q, not the file it came from (err %v)", again, err)
		}
		for i := len(data) - len(ent.Body) - len(ent.Row); i < len(data); i++ {
			rotted := bytes.Clone(data)
			rotted[i] ^= 0xff
			if err := os.WriteFile(path, rotted, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := d.load(path); err == nil {
				t.Fatalf("load accepted the file with byte %d of %d flipped", i, len(data))
			}
		}
		for delta := -len(ent.Body) + 1; delta < len(ent.Row); delta++ {
			if delta == 0 {
				continue
			}
			if err := os.WriteFile(path, withBodyLen(t, data, delta), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := d.load(path); err == nil {
				t.Fatalf("load accepted body_len %d for a %d-byte body", len(ent.Body)+delta, len(ent.Body))
			}
		}
	})
}

// withBodyLen returns the v2 file b with its header's body_len moved by
// delta and nothing else changed.
func withBodyLen(t testing.TB, b []byte, delta int) []byte {
	t.Helper()
	line, data, _ := bytes.Cut(b, []byte{'\n'})
	var h storeHeader
	if err := json.Unmarshal(line, &h); err != nil {
		t.Fatal(err)
	}
	h.BodyLen += delta
	line, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(line, '\n'), data...)
}
