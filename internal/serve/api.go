// The versioned v1 HTTP surface: every endpoint lives under /v1/ and only
// there (an unversioned path is a 404), all error statuses share one typed
// JSON envelope, and POST /v1/designs batches N design requests into an
// NDJSON stream ordered by completion.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/obs"
)

// APIVersion is the current HTTP surface version — the /v1/ path prefix.
const APIVersion = "v1"

// ErrorResponse is the uniform error envelope: every non-2xx JSON response
// (400, 404, 413, 429, 503, 504, 500) carries exactly this shape, so clients
// branch on one machine-readable code instead of scraping status text.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope payload: a stable machine-readable code plus
// a human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes carried by the envelope, one per failure class.
const (
	CodeBadRequest    = "bad_request"    // 400: malformed or invalid request
	CodeNotFound      = "not_found"      // 404: key not cached (evictable by design)
	CodeTooLarge      = "too_large"      // 413: request past the procs/iterations bounds
	CodeBulkSaturated = "bulk_saturated" // 429: bulk lane at its inflight watermark
	CodeQueueFull     = "queue_full"     // 503: admission queue full, retry later
	CodeTimeout       = "timeout"        // 504: synthesis exceeded the server budget
	CodeInternal      = "internal"       // 500: everything else
)

// writeError renders the envelope. The Content-Type is always JSON — error
// paths included — so clients never need a text fallback parser. HTML
// escaping is off: messages quote user input (benchmark names, bounds like
// "> 0") and must read back exactly as written.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

// itemResult is the uniform outcome of resolving one design request —
// through the local stores, a forwarding peer, or a synthesis. The single
// and batch handlers render the same itemResult as headers+body and as an
// NDJSON row respectively.
type itemResult struct {
	status  int
	key     string
	cache   string // hit | miss | shared (empty on errors)
	warm    string // cold | seeded (empty when warm starts are disabled)
	body    []byte // DesignResponse bytes when status == 200
	row     []byte // the same response compact: what a batch row embeds
	errCode string
	errMsg  string
}

// entryResult is the 200 result that serves a stored entry.
func entryResult(ent *Entry, cache string) itemResult {
	return itemResult{status: http.StatusOK, key: ent.Key, cache: cache, warm: ent.Warm, body: ent.Body, row: ent.Row}
}

// BatchRow is one NDJSON row of a POST /v1/designs response: the outcome of
// a single batch item, emitted in completion order (Index ties a row back
// to its request). Successful rows carry the item's content key, its
// cache/warm disposition, and the full DesignResponse; failed rows carry
// the same error envelope detail the single endpoint would have returned.
type BatchRow struct {
	Index    int             `json:"index"`
	Status   int             `json:"status"`
	Key      string          `json:"key,omitempty"`
	Cache    string          `json:"cache,omitempty"`
	Warm     string          `json:"warm,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    *ErrorDetail    `json:"error,omitempty"`
}

// maxBatchItems bounds one POST /v1/designs request. Larger sweeps split
// into multiple batches; the admission queue, not the batch size, is the
// real concurrency control.
const maxBatchItems = 256

// handleBatch serves POST /v1/designs: a JSON array of DesignRequest
// objects, answered as an NDJSON stream of BatchRow values in completion
// order — each row flushed as its item finishes, so early results reach the
// client while slow syntheses are still running. Every item runs through
// the same resolve path as POST /v1/design: local stores, peer forwarding,
// singleflight, lane admission, and the shared queue; duplicate items in
// one batch collapse onto a single synthesis.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	obs.Count(s.col, "serve.requests", 1)
	obs.Count(s.col, "serve.batch_requests", 1)
	sp := obs.Span(s.col, "serve.batch")
	defer sp.End()

	raw, err := readBody(w, r)
	if err != nil {
		obs.Count(s.col, "serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	var items []json.RawMessage
	if err := json.Unmarshal(raw, &items); err != nil {
		obs.Count(s.col, "serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding batch: expected a JSON array of design requests: "+err.Error())
		return
	}
	if len(items) == 0 || len(items) > maxBatchItems {
		obs.Count(s.col, "serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("batch size %d outside [1, %d]", len(items), maxBatchItems))
		return
	}
	obs.Count(s.col, "serve.batch_items", int64(len(items)))

	forwarded := r.Header.Get(ForwardedHeader) != ""
	type resolved struct {
		index int
		res   itemResult
	}
	done := make(chan resolved)
	for i, item := range items {
		go func(i int, item []byte) {
			done <- resolved{i, s.resolve(r.Context(), item, forwarded)}
		}(i, item)
	}

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Nocd-Batch-Items", strconv.Itoa(len(items)))
	flusher, _ := w.(http.Flusher)
	re := rowEncoders.Get().(*rowEncoder)
	defer rowEncoders.Put(re)
	for range items {
		d := <-done
		w.Write(re.encode(d.index, d.res))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// rowEncoder renders NDJSON rows into reusable buffers, each written to the
// response in one Write, and is pooled across rows and requests so the batch
// hot path allocates neither an encoder nor a fresh buffer per row.
type rowEncoder struct {
	row []byte       // a 200 row, written directly
	buf bytes.Buffer // enc's output
	enc *json.Encoder
}

// encode renders item i's row; the slice is valid until the next call. A
// 200 row is BatchRow's encoding written field by field, with the stored
// compact response copied in as it is: json.Encoder would re-scan and
// re-compact those 9–13 KB on every row of every batch. Empty strings are
// left out exactly as omitempty leaves them out, and TestBatchRowBytes holds
// the result byte for byte to the encoder on batchRow(i, res). An error row
// is small and goes through the encoder.
func (re *rowEncoder) encode(i int, res itemResult) []byte {
	if res.status != http.StatusOK {
		re.buf.Reset()
		re.enc.Encode(batchRow(i, res)) // ints and strings only: it cannot fail
		return re.buf.Bytes()
	}
	b := append(re.row[:0], `{"index":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(res.status), 10)
	for _, f := range [...]struct{ name, value string }{{"key", res.key}, {"cache", res.cache}, {"warm", res.warm}} {
		if f.value != "" {
			b = append(b, ',', '"')
			b = append(b, f.name...)
			b = append(b, '"', ':')
			b = re.appendString(b, f.value)
		}
	}
	if len(res.row) > 0 {
		b = append(b, `,"response":`...)
		b = append(b, res.row...)
	}
	re.row = append(b, '}', '\n')
	return re.row
}

// appendString appends s as a JSON string the way enc writes it: verbatim
// between quotes when no byte needs escaping — true of every key and
// disposition this server mints — and through enc otherwise (a relayed
// peer's headers can hold anything).
func (re *rowEncoder) appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			re.buf.Reset()
			re.enc.Encode(s)
			return append(b, bytes.TrimSuffix(re.buf.Bytes(), []byte{'\n'})...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

var rowEncoders = sync.Pool{New: func() any {
	re := &rowEncoder{}
	re.enc = json.NewEncoder(&re.buf)
	re.enc.SetEscapeHTML(false)
	return re
}}

// batchRow maps a resolved item onto its NDJSON row. Error rows are encoded
// from it; a 200 row's bytes are rowEncoder.encode's, which must equal its
// encoding.
func batchRow(i int, res itemResult) BatchRow {
	row := BatchRow{Index: i, Status: res.status, Key: res.key, Cache: res.cache, Warm: res.warm}
	if res.status == http.StatusOK {
		row.Response = json.RawMessage(res.body)
	} else {
		row.Error = &ErrorDetail{Code: res.errCode, Message: res.errMsg}
	}
	return row
}
