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
	errCode string
	errMsg  string
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
	rows := make(chan BatchRow)
	for i, item := range items {
		go func(i int, item []byte) {
			res := s.resolve(r.Context(), item, forwarded)
			rows <- batchRow(i, res)
		}(i, item)
	}

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Nocd-Batch-Items", strconv.Itoa(len(items)))
	flusher, _ := w.(http.Flusher)
	re := rowEncoders.Get().(*rowEncoder)
	defer rowEncoders.Put(re)
	for range items {
		re.buf.Reset()
		if err := re.enc.Encode(<-rows); err != nil {
			continue
		}
		w.Write(re.buf.Bytes())
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// rowEncoder is a reusable NDJSON row buffer with a JSON encoder bound to
// it. Rows are encoded into the buffer and written to the response in one
// Write, and the pair is pooled across rows and requests so the batch hot
// path stops allocating an encoder (and growing a fresh buffer) per row.
type rowEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var rowEncoders = sync.Pool{New: func() any {
	re := &rowEncoder{}
	re.enc = json.NewEncoder(&re.buf)
	re.enc.SetEscapeHTML(false)
	return re
}}

// batchRow maps a resolved item onto its NDJSON row.
func batchRow(i int, res itemResult) BatchRow {
	row := BatchRow{Index: i, Status: res.status, Key: res.key, Cache: res.cache, Warm: res.warm}
	if res.status == http.StatusOK {
		row.Response = json.RawMessage(res.body)
	} else {
		row.Error = &ErrorDetail{Code: res.errCode, Message: res.errMsg}
	}
	return row
}
