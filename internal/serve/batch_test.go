package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postBatch issues one POST /v1/designs and decodes the NDJSON rows in
// arrival order.
func postBatch(t *testing.T, url, body string) (*http.Response, []BatchRow) {
	t.Helper()
	resp, err := http.Post(url+"/v1/designs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/designs: %v", err)
	}
	defer resp.Body.Close()
	var rows []BatchRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var row BatchRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading NDJSON stream: %v", err)
	}
	return resp, rows
}

// TestBatchMixedOutcomes pins the batch contract: N items → N NDJSON rows
// (indexed, so completion order is fine), duplicates collapse onto one
// synthesis, and a failing item carries the envelope detail without
// poisoning its siblings.
func TestBatchMixedOutcomes(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `[
		{"benchmark":"CG","procs":16},
		{"benchmark":"CG","procs":16},
		{"benchmark":"LU","procs":16}
	]`
	resp, rows := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if got := resp.Header.Get("X-Nocd-Batch-Items"); got != "3" {
		t.Errorf("X-Nocd-Batch-Items = %q, want 3", got)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}

	byIndex := map[int]BatchRow{}
	for _, r := range rows {
		byIndex[r.Index] = r
	}
	if len(byIndex) != 3 {
		t.Fatalf("row indexes not unique: %+v", rows)
	}
	for _, i := range []int{0, 1} {
		r := byIndex[i]
		if r.Status != http.StatusOK || len(r.Response) == 0 || r.Key == "" {
			t.Errorf("row %d: status %d, %d response bytes, key %q", i, r.Status, len(r.Response), r.Key)
		}
	}
	if !bytes.Equal(byIndex[0].Response, byIndex[1].Response) {
		t.Error("duplicate items returned different bytes")
	}
	if byIndex[0].Key != byIndex[1].Key {
		t.Errorf("duplicate items keyed differently: %q vs %q", byIndex[0].Key, byIndex[1].Key)
	}
	bad := byIndex[2]
	if bad.Status != http.StatusBadRequest || bad.Error == nil || bad.Error.Code != CodeBadRequest {
		t.Errorf("failing row = %+v, want 400 with %q", bad, CodeBadRequest)
	}
	// The duplicate pair ran once: either the second joined the first's
	// flight or hit the cache the first had just filled.
	col := srv.Metrics()
	if got := col.Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1 (duplicates did not collapse)", got)
	}
	if got := col.Counter("serve.batch_requests"); got != 1 {
		t.Errorf("serve.batch_requests = %d, want 1", got)
	}
	if got := col.Counter("serve.batch_items"); got != 3 {
		t.Errorf("serve.batch_items = %d, want 3", got)
	}
}

// TestBatchRejectsBadShapes pins the batch-level 400s: not-an-array and
// empty arrays are envelope errors before any item work starts.
func TestBatchRejectsBadShapes(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for name, body := range map[string]string{
		"not an array": `{"benchmark":"CG","procs":16}`,
		"empty array":  `[]`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/designs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("not an envelope: %v", err)
			}
			if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
				t.Errorf("status %d code %q, want 400 %q", resp.StatusCode, env.Error.Code, CodeBadRequest)
			}
		})
	}
	if got := srv.Metrics().Counter("synth.runs"); got != 0 {
		t.Errorf("synth.runs = %d, want 0", got)
	}
}

// TestBulkLaneWatermark pins the priority semantics end to end: with the
// bulk watermark at 1 and a bulk synthesis parked on the gate, a second
// bulk pattern fails fast with 429 while an interactive pattern proceeds
// through the ordinary queue.
func TestBulkLaneWatermark(t *testing.T) {
	gate := newGate()
	cfg := quickConfig()
	cfg.Synth.Obs = gate
	cfg.MaxInFlight = 2 // two slots, so only the lane — not the queue — throttles
	cfg.BulkMaxInFlight = 1
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, b := postDesign(t, ts.URL, `{"benchmark":"CG","procs":16,"lane":"bulk"}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("parked bulk request: status %d: %s", resp.StatusCode, b)
		}
	}()
	<-gate.started // the bulk slot is now provably held

	resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"FFT","procs":16,"lane":"bulk"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second bulk request: status %d, want 429 (%s)", resp.StatusCode, b)
	}
	if code := decodeEnvelope(t, resp, b); code != CodeBulkSaturated {
		t.Errorf("code = %q, want %q", code, CodeBulkSaturated)
	}

	// Interactive traffic is admitted past the saturated bulk lane: MG takes
	// the second execution slot (it parks on the same gate, so completion is
	// checked after release). With MaxInFlight=2 the 429 above can only have
	// come from the lane watermark, not the shared queue.
	idone := make(chan struct{})
	go func() {
		defer close(idone)
		iresp, ib := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"MG","procs":8}`)
		if iresp.StatusCode != http.StatusOK {
			t.Errorf("interactive request during bulk saturation: status %d (%s)", iresp.StatusCode, ib)
		}
	}()
	waitCounter(t, srv.Metrics(), "serve.lane_interactive", 1)

	close(gate.release)
	<-done
	<-idone

	col := srv.Metrics()
	for name, want := range map[string]int64{
		"serve.lane_bulk":           2,
		"serve.lane_bulk_throttled": 1,
		"serve.lane_interactive":    1,
	} {
		if got := col.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestBatchStreamsBeforeCompletion pins the streaming property: a fast
// item's row arrives while a slow item is still synthesizing, not after
// the whole batch completes.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	gate := newGate()
	cfg := quickConfig()
	cfg.Synth.Obs = gate
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Item 0 parks on the gate mid-synthesis; item 1 fails parsing
	// instantly, so its row can only reach us early if rows really stream.
	resp, err := http.Post(ts.URL+"/v1/designs", "application/json",
		strings.NewReader(`[{"benchmark":"CG","procs":16},{"benchmark":"LU","procs":16}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	type scanResult struct {
		ok  bool
		row BatchRow
	}
	first := make(chan scanResult, 1)
	go func() {
		if !sc.Scan() {
			first <- scanResult{}
			return
		}
		var row BatchRow
		json.Unmarshal(sc.Bytes(), &row)
		first <- scanResult{ok: true, row: row}
	}()
	<-gate.started // item 0 is provably mid-synthesis
	select {
	case res := <-first:
		if !res.ok {
			t.Fatal("stream closed before any row")
		}
		if res.row.Index != 1 || res.row.Status != http.StatusBadRequest {
			t.Errorf("first streamed row = %+v, want index 1 status 400", res.row)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no row streamed while the slow item was in flight")
	}
	close(gate.release)
	var last BatchRow
	for sc.Scan() {
		json.Unmarshal(sc.Bytes(), &last)
	}
	if last.Index != 0 || last.Status != http.StatusOK {
		t.Errorf("final row = %+v, want index 0 status 200", last)
	}
}

// storedEntry resolves body on srv and returns the entry its memory store
// then holds.
func storedEntry(t *testing.T, srv *Server, body string) *Entry {
	t.Helper()
	res := srv.resolve(context.Background(), []byte(body), false)
	if res.status != http.StatusOK {
		t.Fatalf("%s: status %d (%s)", body, res.status, res.errMsg)
	}
	ent, ok := srv.mem.Get(res.key)
	if !ok {
		t.Fatalf("%s: no stored entry", body)
	}
	return ent
}

// TestPublishForms pins the one marshal's two forms on a flat and a hier
// response: Row is Body compacted, and Body is Row indented plus a newline.
func TestPublishForms(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	for _, body := range []string{
		`{"benchmark":"CG","procs":16}`,
		`{"benchmark":"CG","procs":16,"hier":{"clusters":"blocks:4"}}`,
	} {
		ent := storedEntry(t, srv, body)
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, ent.Body); err != nil || !bytes.Equal(compact.Bytes(), ent.Row) {
			t.Errorf("%s: json.Compact(Body) differs from Row (err %v)", body, err)
		}
		if err := json.Indent(&indented, ent.Row, "", "  "); err != nil {
			t.Fatalf("%s: indenting Row: %v", body, err)
		}
		if indented.WriteByte('\n'); !bytes.Equal(indented.Bytes(), ent.Body) {
			t.Errorf("%s: json.Indent(Row) + newline differs from Body", body)
		}
	}
}

// TestBatchRowBytes holds the direct row writer to BatchRow, the documented
// schema: for every kind of item result, the row it writes is byte for byte
// what json.Encoder, HTML escaping off, writes for batchRow(i, res) — whose
// response is the indented body, compacted by the encoder.
func TestBatchRowBytes(t *testing.T) {
	const cg = `{"benchmark":"CG","procs":16}`
	off := quickConfig()
	off.WarmThreshold = -1
	srv := newTestServer(t, quickConfig())
	entries := []*Entry{
		storedEntry(t, newTestServer(t, off), cg),
		storedEntry(t, srv, cg),
		// Twice the iterations, the same contention structure: seeded.
		storedEntry(t, srv, `{"benchmark":"CG","procs":16,"iterations":2}`),
	}
	var results []itemResult
	for i, warm := range []string{"", "cold", "seeded"} {
		if entries[i].Warm != warm {
			t.Fatalf("entry %d: warm %q, want %q", i, entries[i].Warm, warm)
		}
		for _, cache := range []string{"hit", "miss", "shared"} {
			results = append(results, entryResult(entries[i], cache))
		}
	}

	// A relayed item: the non-owner holds no entry, and its row is the
	// owner's body compacted in relay.
	servers, urls := newFleet(t, 2, nil)
	relayed := servers[0].resolve(context.Background(), []byte(ownedBody(t, servers[0], urls[1], `{"benchmark":"FFT","procs":8,"seed":%d}`)), false)
	if relayed.status != http.StatusOK || servers[0].mem.Len() != 0 || servers[0].Metrics().Counter("serve.forwarded") != 1 {
		t.Fatalf("relayed item: status %d, %d local entries, %d forwards", relayed.status, servers[0].mem.Len(),
			servers[0].Metrics().Counter("serve.forwarded"))
	}
	odd := relayed // a peer's headers may hold anything; one escape trigger each
	odd.key, odd.cache, odd.warm = `sha256:"<&>"`, `hit\`, "\x01\x7f\tsé\u2028"
	results = append(results, relayed, odd)

	msg := "a <message> & \"quotes\" \\ é\n "
	for _, e := range []struct {
		status int
		code   string
	}{
		{http.StatusBadRequest, CodeBadRequest}, {http.StatusNotFound, CodeNotFound},
		{http.StatusRequestEntityTooLarge, CodeTooLarge}, {http.StatusTooManyRequests, CodeBulkSaturated},
		{http.StatusServiceUnavailable, CodeQueueFull}, {http.StatusGatewayTimeout, CodeTimeout},
		{http.StatusInternalServerError, CodeInternal}, {http.StatusMethodNotAllowed, "peer_error"},
	} {
		results = append(results, itemResult{status: e.status, key: relayed.key, errCode: e.code, errMsg: msg})
	}
	results = append(results, itemResult{status: StatusClientClosedRequest})

	re := rowEncoders.Get().(*rowEncoder)
	defer rowEncoders.Put(re)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	for i, res := range results {
		want.Reset()
		if err := enc.Encode(batchRow(i, res)); err != nil {
			t.Fatalf("row %d: encoding the oracle: %v", i, err)
		}
		if got := re.encode(i, res); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("row %d (status %d, cache %q, warm %q):\n got %.300s\nwant %.300s", i, res.status, res.cache, res.warm, got, want.Bytes())
		}
	}
}
