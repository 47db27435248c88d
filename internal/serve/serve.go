// Package serve turns the synthesis pipeline into a long-running HTTP/JSON
// service (the nocd daemon): POST a communication pattern — a NAS benchmark
// name plus processor count, or an inline noctrace v1 trace — and get back
// the synthesized design, its verdicts, and the request's RunReport.
//
// The paper's premise is that well-behaved patterns repeat, which is
// exactly the workload a content-addressed cache exploits: requests are
// keyed by the pattern's canonical hash plus the fingerprint of the
// output-affecting synthesis options (see Key), deduplicated in flight by a
// singleflight layer, and replayed byte-for-byte on repeat from a layered
// design store (store.go): a bounded in-memory LRU in front of an optional
// persistent content-addressed disk store (diskstore.go) that survives
// restarts, with consistent-hash peer sharding (peers.go) forwarding each
// key to its owning replica so a fleet behaves like one big cache. A
// warm-start layer (warm.go) extends the cache across *similar* requests:
// exact-key misses consult a structural-fingerprint index of the cached
// designs — rebuilt from disk on startup — and a near-enough neighbor seeds
// the synthesis instead of a cold start (X-Nocd-Warm reports which).
// Synthesis runs under a per-request context with reference-counted
// cancellation — a dropped client aborts the work promptly unless another
// request is still waiting on the same key — behind an admission gate
// bounding concurrent syntheses and queue depth, with a separate bulk lane
// watermark so sweeps cannot starve interactive traffic. The HTTP surface
// is versioned under /v1/ and nowhere else (api.go), with POST /v1/designs
// batching N requests into a completion-ordered NDJSON stream. Everything
// is observed through internal/obs: serve.* counters
// plus the synth.*/coloring.* counters of the work itself land in the
// server-lifetime Collector exposed at /v1/metrics, while each synthesis
// also feeds the per-request Collector embedded in its response.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ResponseSchema identifies the /v1/design response artifact;
// ResponseVersion is bumped on any breaking change to its fields.
const (
	ResponseSchema  = "nocd.design"
	ResponseVersion = 1
)

// StatusClientClosedRequest is the (nginx-convention) status recorded when
// the client hangs up before the design is ready. The client never sees it;
// it keeps handler accounting honest.
const StatusClientClosedRequest = 499

// maxRequestBytes bounds request bodies; inline traces (or batches) above
// it are rejected with 400.
const maxRequestBytes = 16 << 20

// Lane names for DesignRequest.Lane.
const (
	LaneInteractive = "interactive"
	LaneBulk        = "bulk"
)

// Config tunes a Server. The zero value is serviceable: defaults are
// resolved by Normalized.
type Config struct {
	// CacheSize bounds the in-memory LRU design store, in entries (default
	// 128; negative disables the memory layer).
	CacheSize int
	// DataDir roots the persistent content-addressed disk store: one
	// fsync'd file per key, scanned on startup to rebuild the warm-start
	// index, so designs outlive the process. Empty disables the layer.
	DataDir string
	// Self is this replica's own base URL as it appears in Peers.
	Self string
	// Peers is the full fleet membership (base URLs, every replica listed
	// identically on every member). Non-empty enables consistent-hash
	// sharding: each request key has one owning replica, and non-owners
	// forward to it. SetPeers reconfigures both at runtime.
	Peers []string
	// MaxInFlight bounds concurrently executing syntheses (default 2).
	MaxInFlight int
	// MaxQueue bounds syntheses waiting for an execution slot; beyond it
	// requests fail fast with 503 (default 64; negative refuses all
	// queueing).
	MaxQueue int
	// BulkMaxInFlight is the bulk-lane watermark: at most this many
	// lane=bulk syntheses execute at once, and a bulk request arriving at
	// the watermark fails fast with 429 instead of queueing ahead of
	// interactive traffic (default 1; negative rejects all bulk work).
	BulkMaxInFlight int
	// Timeout is the per-synthesis budget; an expired budget returns 504
	// (default 2m; negative disables the budget).
	Timeout time.Duration
	// Synth supplies the server-wide synthesis defaults. Requests may
	// override the knobs exposed in DesignRequest; Workers and Obs are
	// operator-only. Obs, when set, is teed into every synthesis (test
	// hook and operator escape hatch).
	Synth synth.Options
	// Workload supplies pattern-generation defaults for by-name requests
	// (a request's iterations override Iterations; Obs is ignored).
	Workload workloads.Config
	// WarmThreshold is the structural-distance ceiling for warm-start
	// seeding: on an exact-key cache miss, the structurally nearest cached
	// design within this distance seeds the synthesis instead of a cold
	// start (X-Nocd-Warm reports which happened). 0 selects
	// DefaultWarmThreshold; negative disables warm starts.
	WarmThreshold float64
}

// Normalized returns the configuration with every zero field replaced by
// its documented default.
func (c Config) Normalized() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.BulkMaxInFlight == 0 {
		c.BulkMaxInFlight = 1
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Minute
	}
	return c
}

// DesignRequest is the /v1/design request body (and one /v1/designs batch
// item). Exactly one pattern source — Benchmark (with Procs) or Trace —
// must be set.
type DesignRequest struct {
	// Benchmark names a workload: a NAS benchmark (BT, CG, FFT, MG, SP)
	// or a collective (ring-allreduce, reduce-scatter, all-gather,
	// tree-broadcast), resolved by internal/workloads.
	Benchmark string `json:"benchmark,omitempty"`
	// Procs is the processor count for a benchmark pattern.
	Procs int `json:"procs,omitempty"`
	// Iterations overrides the benchmark's main-loop iteration count
	// (for a collective: its repeat count).
	Iterations int `json:"iterations,omitempty"`
	// Trace is an inline noctrace v1 document.
	Trace string `json:"trace,omitempty"`
	// Lane selects the admission lane: "interactive" (the default) or
	// "bulk". Bulk syntheses execute only below the BulkMaxInFlight
	// watermark — beyond it they fail fast with 429 — so sweeps cannot
	// starve interactive traffic. The lane never affects the synthesized
	// bytes and is excluded from the cache key.
	Lane string `json:"lane,omitempty"`

	// Synthesis overrides; zero keeps the server default.
	Seed      int64 `json:"seed,omitempty"`
	MaxDegree int   `json:"max_degree,omitempty"`
	MaxProcs  int   `json:"max_procs,omitempty"`
	Restarts  int   `json:"restarts,omitempty"`

	// Hier, when present, asks for a two-level chiplet design instead of a
	// flat one: the pattern is partitioned per Clusters, each chiplet's NoC
	// and the inter-chiplet NoI are synthesized independently, and the
	// response's design document is hier-design v1 rather than design v1.
	Hier *HierRequest `json:"hier,omitempty"`
}

// HierRequest configures two-level synthesis. Clusters uses the hier
// cluster-spec grammar ("4", "flow:4", "blocks:4", or explicit
// "0-3;4-7@4,7" groups); the NoI knobs override the flat synthesis knobs
// for the inter-chiplet level only.
type HierRequest struct {
	Clusters     string `json:"clusters"`
	MaxGateways  int    `json:"max_gateways,omitempty"`
	GatewayWidth int    `json:"gateway_width,omitempty"`
	NoILinkDelay int    `json:"noi_link_delay,omitempty"`
	NoIMaxDegree int    `json:"noi_max_degree,omitempty"`
	NoIMaxProcs  int    `json:"noi_max_procs,omitempty"`
}

// DesignResponse is the /v1/design response body. Cached requests replay
// the exact bytes of the first response, so everything here — including the
// embedded RunReport's wall-clock spans — describes the synthesis that
// actually ran, not the request that fetched it; whether this copy came
// from the cache is in the X-Nocd-Cache header, which is deliberately NOT
// part of the body.
type DesignResponse struct {
	Schema         string          `json:"schema"`
	Version        int             `json:"version"`
	PatternHash    string          `json:"pattern_hash"`
	Name           string          `json:"name"`
	Procs          int             `json:"procs"`
	ConstraintsMet bool            `json:"constraints_met"`
	ContentionFree bool            `json:"contention_free"`
	ExactColoring  bool            `json:"exact_coloring"`
	Switches       int             `json:"switches"`
	Links          int             `json:"links"`
	Design         json.RawMessage `json:"design"`
	Stats          synth.Stats     `json:"stats"`
	Report         *obs.RunReport  `json:"report"`
	// Hier summarizes the two-level structure when the request carried a
	// hier block; flat responses omit it. Design then holds hier-design v1.
	Hier *HierSummary `json:"hier,omitempty"`
}

// HierSummary is the response-side digest of a two-level design.
type HierSummary struct {
	// Clusters is the canonical cluster spec the partition satisfied.
	Clusters     string  `json:"clusters"`
	ClusterCount int     `json:"cluster_count"`
	Gateways     [][]int `json:"gateways"`
	GatewayWidth int     `json:"gateway_width"`
	NoILinkDelay int     `json:"noi_link_delay"`
	NoISwitches  int     `json:"noi_switches"`
	NoILinks     int     `json:"noi_links"`
}

// errQueueFull rejects work when MaxInFlight syntheses are executing and
// MaxQueue more are already waiting.
var errQueueFull = errors.New("serve: synthesis queue full")

// errBulkSaturated rejects bulk-lane work at the BulkMaxInFlight watermark.
var errBulkSaturated = errors.New("serve: bulk lane at its inflight watermark")

// Server is the nocd HTTP handler. Create with New.
type Server struct {
	cfg     Config
	col     *obs.Collector
	mem     *memStore
	disk    *diskStore // nil without Config.DataDir
	warm    *warmIndex
	memo    *keyMemo
	flights *flightGroup
	mux     *http.ServeMux
	sem     chan struct{}
	bulkSem chan struct{} // no slots when the bulk lane is disabled
	queued  atomic.Int64
	ring    atomic.Pointer[peerRing]
	client  *http.Client
}

// New builds a Server from the configuration. With a DataDir it opens and
// scans the persistent store — rebuilding the warm-start index from the
// surviving designs — so a scan failure (an unusable directory) fails
// construction rather than silently serving without durability.
func New(cfg Config) (*Server, error) {
	cfg = cfg.Normalized()
	s := &Server{
		cfg:     cfg,
		col:     obs.NewCollector(),
		mem:     newMemStore(cfg.CacheSize),
		warm:    newWarmIndex(cfg.WarmThreshold),
		memo:    newKeyMemo(),
		flights: newFlightGroup(),
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		bulkSem: make(chan struct{}, max(cfg.BulkMaxInFlight, 0)),
		client:  &http.Client{},
	}
	if cfg.DataDir != "" {
		disk, entries, err := openDiskStore(cfg.DataDir, s.col)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.rebuildWarm(entries)
	}
	s.SetPeers(cfg.Self, cfg.Peers)

	const prefix = "/" + APIVersion
	s.mux.HandleFunc("POST "+prefix+"/design", s.handleDesign)
	s.mux.HandleFunc("POST "+prefix+"/designs", s.handleBatch)
	s.mux.HandleFunc("GET "+prefix+"/design/{key}", s.handleGetDesign)
	s.mux.HandleFunc("GET "+prefix+"/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET "+prefix+"/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET "+prefix+"/benchmarks", s.handleBenchmarks)
	return s, nil
}

// rebuildWarm re-derives the warm-start index from the disk store's
// surviving entries: each persisted fingerprint plus the seed extracted
// from its design, so warm starts work from the first post-restart request.
func (s *Server) rebuildWarm(entries []*Entry) {
	if s.warm == nil {
		return
	}
	for _, ent := range entries {
		if ent.Fp == nil {
			continue
		}
		var dr DesignResponse
		if json.Unmarshal(ent.Row, &dr) != nil {
			continue
		}
		net, table, err := synth.LoadDesign(bytes.NewReader(dr.Design))
		if err != nil {
			continue
		}
		if seed := synth.SeedFromDesign(net, table); seed != nil {
			s.warm.add(ent.Key, ent.Fp, seed)
			obs.Count(s.col, "serve.warm_rebuilt", 1)
		}
	}
}

// Metrics exposes the server-lifetime Collector (the /v1/metrics source)
// for embedders and tests.
func (s *Server) Metrics() *obs.Collector { return s.col }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.col.Report("nocd").WriteJSON(w); err != nil {
		obs.Count(s.col, "serve.errors", 1)
	}
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(workloads.Names())
}

// readBody drains a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return nil, badRequest("reading request body: %v", err)
	}
	return b, nil
}

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	obs.Count(s.col, "serve.requests", 1)
	sp := obs.Span(s.col, "serve.request")
	defer sp.End()

	raw, err := readBody(w, r)
	if err != nil {
		obs.Count(s.col, "serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	res := s.resolve(r.Context(), raw, r.Header.Get(ForwardedHeader) != "")
	s.writeResult(w, res)
}

// resolve runs one design request end to end, as one list of stages shared
// by the single and batch endpoints:
//
//	plan     decode the body, validate its knobs and bounds   (request.go)
//	key      trace hash — memo, or build the pattern — + knobs (requestKey)
//	lookup   the layered local stores
//	forward  relay to the key's owning peer
//	flight   singleflight → admission → pattern → synthesis    (synthesize)
//
// The pattern is not a parse result: a request whose pattern the key memo
// knows — by name or inline — reaches its key without one, and only a
// flight leader — behind the stores, the forward and admission — builds it.
// alreadyForwarded marks a request a peer relayed here; it is then always
// handled locally (single-hop loop protection).
func (s *Server) resolve(ctx context.Context, raw []byte, alreadyForwarded bool) itemResult {
	plan, err := s.planRequest(raw)
	if err != nil {
		return s.errorResult(ctx, "", err)
	}
	key, pat, err := s.requestKey(plan)
	if err != nil {
		return s.errorResult(ctx, "", err)
	}
	obs.Count(s.col, "serve.lane_"+plan.lane, 1)

	if ent, ok := s.lookup(key); ok {
		obs.Count(s.col, "serve.cache_hit", 1)
		return entryResult(ent, "hit")
	}
	if !alreadyForwarded {
		if res, ok := s.forward(ctx, http.MethodPost, "/v1/design", key, raw); ok {
			return res
		}
	}

	reqCol := obs.NewCollector()
	ent, err, shared := s.flights.Do(ctx, key, func(runCtx context.Context) (*Entry, error) {
		return s.synthesize(runCtx, key, plan, pat, reqCol)
	})
	if err != nil {
		return s.errorResult(ctx, key, err)
	}
	how := "miss"
	if shared {
		how = "shared"
		obs.Count(s.col, "serve.singleflight_shared", 1)
	}
	return entryResult(ent, how)
}

// requestKey computes the plan's cache key — byte for byte Key of its
// pattern — through the key memo, for a named workload and an inline trace
// alike. On a hit the hash resumes just past the trace bytes and no pattern
// exists yet (pat is nil; the flight leader builds it if the stores miss
// too); on a miss the pattern is built once, hashed, memoised, and handed
// on. A pattern that fails to build — an unknown name, an undecodable trace,
// one past the procs bound — is never memoised.
func (s *Server) requestKey(plan *designPlan) (key string, pat *model.Pattern, err error) {
	id := memoID{workload: plan.workload}
	if plan.trace != "" {
		id.trace = sha256.Sum256([]byte(plan.trace))
	}
	h, ok := s.memo.restore(id)
	if ok {
		obs.Count(s.col, "serve.keymemo_hit", 1)
	} else {
		obs.Count(s.col, "serve.keymemo_miss", 1)
		if pat, err = s.buildPattern(plan); err != nil {
			return "", nil, err
		}
		h = traceHash(pat)
		s.memo.save(id, h)
	}
	return finishKey(h, plan.opt, plan.keyExtras()...), pat, nil
}

// errorResult maps a resolution failure onto its status, envelope code, and
// counters.
func (s *Server) errorResult(ctx context.Context, key string, err error) itemResult {
	var bad *badRequestError
	var tooLarge *tooLargeError
	var panicked *panicError
	switch {
	case errors.As(err, &panicked):
		// First, so that a client that has meanwhile hung up cannot turn a
		// panic into a quiet 499.
		obs.Count(s.col, "serve.panics", 1)
		log.Printf("nocd: panic resolving %s: %v\n%s", key, panicked.value, panicked.stack)
		return itemResult{status: http.StatusInternalServerError, key: key, errCode: CodeInternal,
			errMsg: "internal error: synthesis panicked"}
	case errors.As(err, &bad):
		obs.Count(s.col, "serve.bad_requests", 1)
		return itemResult{status: http.StatusBadRequest, key: key, errCode: CodeBadRequest, errMsg: bad.Error()}
	case errors.As(err, &tooLarge):
		obs.Count(s.col, "serve.too_large", 1)
		return itemResult{status: http.StatusRequestEntityTooLarge, key: key, errCode: CodeTooLarge, errMsg: tooLarge.Error()}
	case errors.Is(err, errBulkSaturated):
		obs.Count(s.col, "serve.lane_bulk_throttled", 1)
		return itemResult{status: http.StatusTooManyRequests, key: key, errCode: CodeBulkSaturated,
			errMsg: "bulk lane at its inflight watermark, retry later"}
	case errors.Is(err, errQueueFull):
		obs.Count(s.col, "serve.queue_full", 1)
		return itemResult{status: http.StatusServiceUnavailable, key: key, errCode: CodeQueueFull,
			errMsg: "synthesis queue full, retry later"}
	case ctx.Err() != nil:
		// The client hung up; the status goes nowhere but keeps the
		// accounting straight. The synthesis itself aborts once the last
		// waiter is gone (serve.synth_aborted counts that).
		obs.Count(s.col, "serve.client_gone", 1)
		return itemResult{status: StatusClientClosedRequest, key: key}
	case errors.Is(err, context.DeadlineExceeded):
		obs.Count(s.col, "serve.timeout", 1)
		return itemResult{status: http.StatusGatewayTimeout, key: key, errCode: CodeTimeout,
			errMsg: "synthesis exceeded the server budget"}
	default:
		obs.Count(s.col, "serve.errors", 1)
		return itemResult{status: http.StatusInternalServerError, key: key, errCode: CodeInternal, errMsg: err.Error()}
	}
}

// writeResult renders an itemResult as the single-endpoint response.
func (s *Server) writeResult(w http.ResponseWriter, res itemResult) {
	if res.status == StatusClientClosedRequest {
		w.WriteHeader(StatusClientClosedRequest)
		return
	}
	if res.status != http.StatusOK {
		s.writeError(w, res.status, res.errCode, res.errMsg)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Nocd-Cache", res.cache)
	h.Set("X-Nocd-Pattern-Hash", res.key)
	if res.warm != "" {
		h.Set("X-Nocd-Warm", res.warm)
	}
	w.Write(res.body)
}

// lookup consults the layered local stores front to back: the memory LRU,
// then the disk store, promoting disk hits into memory. Per-backend
// dispositions land on the serve.store_{mem,disk}_{hit,miss} counters.
func (s *Server) lookup(key string) (*Entry, bool) {
	if ent, ok := s.mem.Get(key); ok {
		obs.Count(s.col, "serve.store_mem_hit", 1)
		return ent, true
	}
	obs.Count(s.col, "serve.store_mem_miss", 1)
	if s.disk == nil {
		return nil, false
	}
	ent, ok := s.disk.Get(key)
	if !ok {
		obs.Count(s.col, "serve.store_disk_miss", 1)
		return nil, false
	}
	obs.Count(s.col, "serve.store_disk_hit", 1)
	// Promote into memory. The disk layer still holds every key, so the
	// promotion's evictions don't invalidate warm-index entries.
	s.mem.Put(ent)
	return ent, true
}

// store writes an entry through the layered stores and reports whether the
// authoritative layer took it: the disk store when present (it never
// evicts), otherwise the memory LRU. Callers index only what it took, so the
// warm index never names a key that layer does not hold. An entry whose disk
// write failed is still served from memory until the LRU drops it.
func (s *Server) store(ent *Entry) bool {
	evicted, stored := s.mem.Put(ent)
	if s.disk == nil {
		s.warm.remove(evicted...)
		return stored
	}
	stored = s.disk.Put(ent)
	if stored {
		obs.Count(s.col, "serve.store_disk_write", 1)
	}
	return stored
}

// acquire claims a synthesis slot, queueing up to MaxQueue callers.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return errQueueFull
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// acquireBulk claims a bulk-lane slot without blocking: bulk work at the
// watermark fails fast rather than queueing ahead of interactive traffic. A
// disabled lane has no slots, so every bulk request fails here.
func (s *Server) acquireBulk() error {
	select {
	case s.bulkSem <- struct{}{}:
		return nil
	default:
		return errBulkSaturated
	}
}

func (s *Server) releaseBulk() { <-s.bulkSem }

// synthesize is the singleflight leader body, for flat and hier requests
// alike: lane and queue admission, the synthesis under the request context
// plus server budget, response rendering, and the write-through store. The
// lane is the leader's — a request joining an in-flight call shares its
// result regardless of lane. pat is nil when the key came from the memo:
// this leader is then the first to need the pattern and builds it here,
// inside its admission slot. The body branches only where the two kinds
// differ: the synthesis and the response fields it yields.
func (s *Server) synthesize(runCtx context.Context, key string, plan *designPlan, pat *model.Pattern, reqCol *obs.Collector) (*Entry, error) {
	obs.Count(s.col, "serve.cache_miss", 1)
	if plan.lane == LaneBulk {
		if err := s.acquireBulk(); err != nil {
			return nil, err
		}
		defer s.releaseBulk()
	}
	if err := s.acquire(runCtx); err != nil {
		return nil, err
	}
	defer s.release()
	sp := obs.Span(s.col, "serve.synthesize")
	defer sp.End()

	ctx := runCtx
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	if pat == nil {
		var err error
		if pat, err = s.buildPattern(plan); err != nil {
			return nil, err
		}
	}
	opt := plan.opt
	opt.Obs = obs.Tee(s.col, reqCol, s.cfg.Synth.Obs)

	// The contention model is computed once per miss: the report's pattern
	// summary reads these two sets, and so do a flat miss's fingerprint and
	// synthesis. Each hier level derives its own sub-pattern's.
	msp := obs.Span(s.col, "serve.model")
	periods := model.ContentionPeriods(pat)
	cliques := model.MaxCliques(periods)
	msp.End()

	ent := &Entry{Key: key}
	var resp DesignResponse
	var save func(io.Writer) error
	var res *synth.Result
	var err error
	if plan.hier == nil {
		// Warm-start: on this exact-key miss, seed from the structurally
		// nearest cached design when one is close enough. The key was
		// computed from the request's own options (no seed), so the response
		// is stored and replayed under the cold identity — see warm.go for
		// the determinism contract.
		if s.warm != nil {
			ent.Fp = trace.FingerprintCliques(pat.Procs, cliques)
			ent.Warm = "cold"
			if ne, _, ok := s.warm.nearest(ent.Fp); ok {
				sd := *ne.seed
				sd.ChangedProcs = ent.Fp.ChangedSegments(ne.fp)
				opt.SeedDesign = &sd
				ent.Warm = "seeded"
				obs.Count(s.col, "serve.warm_seeded", 1)
			} else {
				obs.Count(s.col, "serve.warm_cold", 1)
			}
		}
		if res, err = synth.SynthesizeCliques(ctx, pat, cliques, opt); err == nil {
			save = func(w io.Writer) error { return synth.SaveDesign(w, res.Net, res.Table) }
			resp = DesignResponse{
				Name:           res.Net.Name,
				Procs:          res.Net.Procs,
				ConstraintsMet: res.ConstraintsMet,
				ContentionFree: res.ContentionFree,
				ExactColoring:  res.ExactColoring,
				Switches:       res.Net.NumSwitches(),
				Links:          res.Net.TotalLinks(),
				Stats:          res.Stats,
			}
		}
	} else {
		// A hier entry skips the warm-start index (its seeds describe flat
		// switch trees, not composites) and is stored with a nil fingerprint
		// so it never seeds a flat request.
		var d *hier.Design
		if d, err = hier.SynthesizeContext(ctx, pat, plan.hierOptions(opt)); err == nil {
			obs.Count(s.col, "serve.hier_designs", 1)
			save = func(w io.Writer) error { return hier.SaveDesign(w, d) }
			resp = DesignResponse{
				Name:           d.Name,
				Procs:          d.Procs,
				ConstraintsMet: d.ConstraintsMet(),
				ContentionFree: d.ContentionFree(),
				ExactColoring:  true,
				Switches:       d.TotalSwitches(),
				Links:          d.TotalLinks(),
				Hier: &HierSummary{
					Clusters:     plan.spec.Canonical(),
					ClusterCount: len(d.Assign.Clusters),
					Gateways:     d.Assign.Gateways,
					GatewayWidth: d.GatewayWidth,
					NoILinkDelay: d.NoILinkDelay,
				},
			}
			for _, lv := range d.Levels() {
				resp.ExactColoring = resp.ExactColoring && lv.Result.ExactColoring
				resp.Stats.Add(lv.Result.Stats)
			}
			if d.NoI != nil {
				resp.Hier.NoISwitches = d.NoI.Net.NumSwitches()
				resp.Hier.NoILinks = d.NoI.Net.TotalLinks()
			}
		}
	}
	if err != nil {
		// A partition that fails against the concrete pattern — an
		// unsatisfiable cluster count, members out of range — is a client
		// error.
		var se *hier.SpecError
		if errors.As(err, &se) {
			return nil, &badRequestError{err: err}
		}
		if ctx.Err() != nil {
			obs.Count(s.col, "serve.synth_aborted", 1)
		}
		return nil, err
	}

	// Render: the design document, then the response with the request's
	// RunReport, marshalled once. The one marshal yields both of ent's
	// forms: Row is the compact JSON, and Body is Row indented plus a
	// newline — byte for byte what MarshalIndent would write, since
	// MarshalIndent is Marshal followed by the same indenter.
	var design bytes.Buffer
	if err := save(&design); err != nil {
		return nil, fmt.Errorf("serve: rendering design: %w", err)
	}
	resp.Schema, resp.Version, resp.PatternHash = ResponseSchema, ResponseVersion, key
	resp.Design = design.Bytes()
	resp.Report = reqCol.Report("nocd")
	resp.Report.Pattern = trace.SummarizeCliques(pat, periods, cliques)
	row, err := json.Marshal(&resp)
	if err != nil {
		return nil, fmt.Errorf("serve: rendering response: %w", err)
	}
	var body bytes.Buffer
	body.Grow(2*len(row) + 1)
	if err := json.Indent(&body, row, "", "  "); err != nil {
		return nil, fmt.Errorf("serve: rendering response: %w", err)
	}
	body.WriteByte('\n')
	// Stored entries keep both forms for their lifetime; the clone drops the
	// buffer's slack, which would otherwise outweigh Row.
	ent.Body, ent.Row = bytes.Clone(body.Bytes()), row
	if !s.store(ent) {
		return ent, nil
	}
	obs.Count(s.col, "serve.cache_store", 1)
	if ent.Fp != nil {
		if seed := synth.SeedFromDesign(res.Net, res.Table); seed != nil {
			s.warm.add(key, ent.Fp, seed)
			obs.Count(s.col, "serve.warm_store", 1)
		}
	}
	return ent, nil
}

// handleGetDesign replays a cached design by its content-addressed key —
// the X-Nocd-Pattern-Hash every /v1/design response carries. Bytes are
// identical to the original response; the lookup walks memory, disk, and
// (for unforwarded requests) the key's owning peer, and a key no layer
// holds is a plain 404, since entries are evictable by design.
func (s *Server) handleGetDesign(w http.ResponseWriter, r *http.Request) {
	obs.Count(s.col, "serve.design_fetch", 1)
	key := r.PathValue("key")
	if ent, ok := s.lookup(key); ok {
		s.writeResult(w, entryResult(ent, "hit"))
		return
	}
	if r.Header.Get(ForwardedHeader) == "" {
		if res, ok := s.forward(r.Context(), http.MethodGet, "/v1/design/"+key, key, nil); ok {
			s.writeResult(w, res)
			return
		}
	}
	obs.Count(s.col, "serve.design_fetch_miss", 1)
	s.writeError(w, http.StatusNotFound, CodeNotFound, "design not cached")
}

// Serve runs the server on ln until ctx is cancelled, then drains
// gracefully: the listener closes immediately so no new connections are
// admitted, in-flight requests run to completion, and Serve returns once
// the last one finishes (bounded by drainTimeout when positive, after which
// remaining connections are abandoned and the deadline error returned).
// cmd/nocd drives this with a SIGTERM/SIGINT-bound context.
func Serve(ctx context.Context, s *Server, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	obs.Emit(s.col, "serve.drain", "shutdown signal received")
	dctx := context.Background()
	if drainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, drainTimeout)
		defer cancel()
	}
	return hs.Shutdown(dctx)
}
