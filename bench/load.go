package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/bench/workload"
	"repro/internal/serve"
)

// primed is what a priming response reveals about one stored design: the
// content key a GET addresses it by, and the digests every later hit on it
// must reproduce byte for byte (compacted inside a batch row).
type primed struct {
	key        string
	sha        string
	compactSHA string
	body       []byte
}

func newPrimed(hdr http.Header, body []byte) primed {
	var compact bytes.Buffer
	// The body is the server's own JSON; a body that fails to compact also
	// fails the design check that runs beside this.
	_ = json.Compact(&compact, body)
	return primed{key: hdr.Get("X-Nocd-Pattern-Hash"), sha: digest(body),
		compactSHA: digest(compact.Bytes()), body: body}
}

// target is where operations are sent: a live nocd over loopback HTTP, or
// the in-process handler of the traced replay.
type target interface {
	// do issues one request and returns the status, headers and full body.
	do(method, path string, body []byte) (int, http.Header, []byte, error)
}

// httpTarget is one closed-loop client: a single keep-alive connection.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{base: base, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (t *httpTarget) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// tally counts operations and keeps the first few failures for the log.
type tally struct {
	attempted, failed, wrong int
	errs                     []string
}

func (t *tally) fail(err error) {
	t.failed++
	t.note(err)
}

func (t *tally) wrongOutput(err error) {
	t.wrong++
	t.note(err)
}

func (t *tally) note(err error) {
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// prime sends the set-up requests in order through one client and checks
// each response: 200, a cache miss, and the golden design where one is
// pinned.
func prime(tg target, ops []workload.Op, chk *checker, t *tally) ([]primed, error) {
	out := make([]primed, len(ops))
	for i, op := range ops {
		t.attempted++
		body := op.Body()
		status, hdr, resp, err := tg.do(op.Method, op.Path, body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("priming request %d (%s): status %d: %v %s", i, op.Class, status, err, clip(resp))
		}
		if c := hdr.Get("X-Nocd-Cache"); c != "miss" {
			return nil, fmt.Errorf("priming request %d (%s): X-Nocd-Cache %q, want miss", i, op.Class, c)
		}
		if err := chk.design(op.Class, op.Golden, body, resp); err != nil {
			t.wrongOutput(err)
		}
		out[i] = newPrimed(hdr, resp)
	}
	return out, nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// verify checks one timed response against what the workload promises:
// misses synthesize (cold or seeded as the workload dictates) and match the
// golden design; hits replay the primed bytes.
func verify(spec workload.Spec, op workload.Op, body []byte, status int, hdr http.Header, resp []byte,
	primes []primed, chk *checker, t *tally) {
	if status != http.StatusOK {
		t.fail(fmt.Errorf("%s: status %d: %s", op.Class, status, clip(resp)))
		return
	}
	if op.Class == "hit.batch" {
		verifyBatch(op, resp, primes, t)
		return
	}
	cache, warm := hdr.Get("X-Nocd-Cache"), hdr.Get("X-Nocd-Warm")
	if op.Refs != nil {
		p := primes[op.Refs[0]]
		switch {
		case cache != "hit":
			t.wrongOutput(fmt.Errorf("%s: X-Nocd-Cache %q, want hit", op.Class, cache))
		case digest(resp) != p.sha:
			t.wrongOutput(fmt.Errorf("%s: hit on %s does not replay the primed bytes", op.Class, p.key))
		}
		return
	}
	// Two clients can race identical keys only if the stream repeats one,
	// which it never does: every miss here must be a real synthesis.
	if cache != "miss" {
		t.wrongOutput(fmt.Errorf("%s: X-Nocd-Cache %q, want miss", op.Class, cache))
		return
	}
	if spec.Name == workload.WarmVariants && warm != "seeded" {
		t.wrongOutput(fmt.Errorf("%s: X-Nocd-Warm %q, want seeded", op.Class, warm))
		return
	}
	if err := chk.design(op.Class, op.Golden, body, resp); err != nil {
		t.wrongOutput(err)
	}
}

// verifyBatch checks an NDJSON batch: one 200 hit row per item, each
// carrying the primed response (compacted by the row encoder).
func verifyBatch(op workload.Op, resp []byte, primes []primed, t *tally) {
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(resp))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var row serve.BatchRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil || row.Index < 0 || row.Index >= len(op.Refs) {
			t.wrongOutput(fmt.Errorf("hit.batch: bad row: %v", err))
			return
		}
		p := primes[op.Refs[row.Index]]
		if row.Status != http.StatusOK || row.Cache != "hit" || row.Key != p.key || digest(row.Response) != p.compactSHA {
			t.wrongOutput(fmt.Errorf("hit.batch: row %d (status %d, cache %q) does not replay %s",
				row.Index, row.Status, row.Cache, p.key))
			return
		}
		seen++
	}
	if seen != len(op.Refs) {
		t.wrongOutput(fmt.Errorf("hit.batch: %d rows for %d items", seen, len(op.Refs)))
	}
}

// sample is one timed operation, in completion order.
type sample struct {
	class string
	ms    float64
	done  time.Duration // completion time since the window opened
	bytes int
}

// loadResult is what one timed window produced.
type loadResult struct {
	samples []sample
	wall    time.Duration
	tally
}

// loadSegment is how long the clients run between two host probes.
const loadSegment = time.Second / 2

// runLoad drives the stream closed-loop from one goroutine per target until
// the window has passed and the stream is at a cycle boundary (or is
// exhausted). minOps keeps a short window open until that many operations
// were issued. A client's next request leaves only after its previous one
// completed. The window runs in segments of about half a second, each ending at a
// cycle boundary; between segments, with every client paused, the host meter
// probes. The result's wall is the segments' alone.
func runLoad(spec workload.Spec, targets []target, stream *workload.Stream, window time.Duration, minOps int,
	primes []primed, chk *checker, alive func() bool, meter *hostMeter) loadResult {
	var out loadResult
	start := time.Now()
	issued, exhausted := 0, false
	for alive() && !exhausted && (time.Since(start) < window || issued < minOps) {
		meter.probe()
		segStart := time.Now()
		var mu sync.Mutex
		next := func() (workload.Op, bool) {
			mu.Lock()
			defer mu.Unlock()
			if exhausted || (time.Since(segStart) >= loadSegment && stream.AtBoundary()) {
				return workload.Op{}, false
			}
			op, ok := stream.Next()
			if !ok {
				exhausted = true
				return op, false
			}
			issued++
			return op, true
		}
		results := make([]loadResult, len(targets))
		var wg sync.WaitGroup
		for i, tg := range targets {
			wg.Add(1)
			go func(res *loadResult, tg target) {
				defer wg.Done()
				for alive() {
					op, ok := next()
					if !ok {
						return
					}
					body, path := op.Body(), op.Path
					if op.Method == http.MethodGet {
						path += primes[op.Refs[0]].key
					}
					res.attempted++
					t0 := time.Now()
					status, hdr, resp, err := tg.do(op.Method, path, body)
					t1 := time.Now()
					if err != nil {
						res.fail(fmt.Errorf("%s: %v", op.Class, err))
						continue
					}
					res.samples = append(res.samples, sample{class: op.Class, ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6,
						done: t1.Sub(start), bytes: len(resp)})
					verify(spec, op, body, status, hdr, resp, primes, chk, &res.tally)
				}
			}(&results[i], tg)
		}
		wg.Wait()
		out.wall += time.Since(segStart)
		for _, r := range results {
			out.samples = append(out.samples, r.samples...)
			out.tally.add(r.tally)
		}
	}
	meter.probe()
	return out
}
