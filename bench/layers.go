package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/bench/workload"
	"repro/internal/collective"
	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
)

// nocdConfig is the serve.Config the traced replay runs in-process: the
// fields cmd/nocd fills from the flags workload.Server.Flags passes the child.
func nocdConfig(s workload.Server, dataDir string) serve.Config {
	return serve.Config{
		CacheSize:       s.CacheSize,
		DataDir:         dataDir,
		MaxInFlight:     s.MaxInFlight,
		MaxQueue:        s.MaxQueue,
		BulkMaxInFlight: s.BulkMaxInFlight,
		Timeout:         s.Timeout,
		WarmThreshold:   s.WarmThreshold,
		Synth: synth.Options{
			Constraints: synth.Constraints{MaxDegree: s.MaxDegree, MaxProcsPerSwitch: s.MaxProcs},
			Seed:        s.Seed,
			Restarts:    s.Restarts,
			Workers:     s.Workers,
		},
	}
}

// handlerTarget sends requests straight into an in-process serve.Server.
type handlerTarget struct{ srv *serve.Server }

func (t handlerTarget) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	w := httptest.NewRecorder()
	t.srv.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.Code, w.Header(), w.Body.Bytes(), nil
}

// counts accumulates the work the replayed layers did.
type counts struct {
	periods, maxCliques                                int64
	restarts, movesEvaluated, movesCommitted, fastGaps int64
	execCycles, flitHops, vcStalls, kills              int64
	simHost                                            time.Duration
}

// hier adds the synthesis work of every level of a two-level design.
func (c *counts) hier(d *hier.Design) {
	for _, lv := range d.Chiplets {
		c.synth(lv.Result.Stats)
	}
	if d.NoI != nil {
		c.synth(d.NoI.Result.Stats)
	}
}

func (c *counts) synth(st synth.Stats) {
	c.restarts += int64(st.RestartsRun)
	c.movesEvaluated += int64(st.MovesEvaluated)
	c.movesCommitted += int64(st.MovesCommitted)
	c.fastGaps += int64(st.FastColorGap)
}

// seedSource is a primed design prepared as a warm-start seed.
type seedSource struct {
	seed *synth.SeedDesign
	fp   *trace.Fingerprint
}

// replayer runs operations against an in-process server and then replays,
// on the same input, the calls into each module's public functions that the
// handler made, one span per call. With a nil recorder it does exactly the
// same work unrecorded: the untraced twin the tracing overhead is measured
// against.
type replayer struct {
	rec  *recorder
	spec workload.Spec
	cfg  serve.Config
	srv  *serve.Server
	// primeOps are the set-up requests and primes what they returned.
	primeOps []workload.Op
	primes   []primed
	seeds    map[int]*seedSource
	counts   counts
	req      int
}

// timed records one layer call as a child of parent and returns its span id.
func (rp *replayer) timed(name string, parent int, fn func()) int {
	id := rp.rec.begin(name, "", rp.req, parent)
	fn()
	rp.rec.end(id)
	return id
}

// model replays MaxCliqueSet's two halves under parent, where parent is a
// call that computes them internally.
func (rp *replayer) model(parent int, pat *model.Pattern) {
	var periods, maxed []model.Clique
	rp.timed("model.contention_periods", parent, func() { periods = model.ContentionPeriods(pat) })
	rp.timed("model.max_cliques", parent, func() { maxed = model.MaxCliques(periods) })
	rp.counts.periods += int64(len(periods))
	rp.counts.maxCliques += int64(len(maxed))
}

// op sends one operation through the handler under a root span, verifies it
// like the load generator does, and replays its layers.
func (rp *replayer) op(op workload.Op, chk *checker, t *tally) error {
	rp.req++
	t.attempted++
	body, path := op.Body(), op.Path
	if op.Method == http.MethodGet {
		path += rp.primes[op.Refs[0]].key
	}
	root := rp.rec.begin("serve.handler", op.Class, rp.req, -1)
	status, hdr, resp, _ := handlerTarget{rp.srv}.do(op.Method, path, body)
	rp.rec.end(root)
	verify(rp.spec, op, body, status, hdr, resp, rp.primes, chk, t)
	if status != http.StatusOK || op.Method == http.MethodGet {
		return nil
	}
	if op.Class == "hit.batch" {
		var items []json.RawMessage
		if err := json.Unmarshal(body, &items); err != nil {
			return err
		}
		for _, item := range items {
			if err := rp.item(root, item, "hit", "", -1); err != nil {
				return err
			}
		}
		return nil
	}
	return rp.item(root, body, hdr.Get("X-Nocd-Cache"), hdr.Get("X-Nocd-Warm"), op.Base)
}

// item replays the layer calls behind one design request, in the order
// serve.resolve makes them.
func (rp *replayer) item(root int, raw []byte, cache, warm string, base int) error {
	var req serve.DesignRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return err
	}
	var pat *model.Pattern
	var err error
	switch {
	case req.Trace != "":
		rp.timed("trace.decode", root, func() { pat, err = trace.Decode(strings.NewReader(req.Trace)) })
	case isNAS(req.Benchmark):
		rp.timed("nas.generate", root, func() {
			pat, err = nas.Generate(req.Benchmark, req.Procs, nas.Config{Iterations: req.Iterations})
		})
	default:
		rp.timed("collective.generate", root, func() {
			pat, err = collective.Generate(req.Benchmark, req.Procs, collective.Config{Repeats: req.Iterations})
		})
	}
	if err != nil {
		return err
	}
	opt := rp.cfg.Synth
	if req.Seed != 0 {
		opt.Seed = req.Seed
	}
	key := rp.timed("serve.key", root, func() { serve.Key(pat, opt) })
	rp.timed("trace.encode", key, func() { _ = trace.Encode(io.Discard, pat) })
	if cache != "miss" {
		return nil
	}

	// The server tees its lifetime collector and the request's into the
	// synthesis; one collector here stands for that cost.
	opt.Obs = obs.NewCollector()
	if req.Hier != nil {
		spec, err := hier.ParseSpec(req.Hier.Clusters)
		if err != nil {
			return err
		}
		var d *hier.Design
		rp.timed("hier.synthesize", root, func() {
			d, err = hier.Synthesize(pat, hier.Options{Spec: spec, NoC: opt, NoI: opt, Obs: opt.Obs})
		})
		if err != nil {
			return err
		}
		rp.timed("hier.save_design", root, func() { err = hier.SaveDesign(io.Discard, d) })
		rp.counts.hier(d)
		rp.model(rp.timed("trace.summarize", root, func() { trace.Summarize(pat) }), pat)
		return err
	}

	name := "synth.synthesize_cold"
	if rp.cfg.WarmThreshold >= 0 {
		var fp *trace.Fingerprint
		rp.model(rp.timed("trace.fingerprint", root, func() { fp = trace.FingerprintPattern(pat) }), pat)
		if warm == "seeded" {
			src, err := rp.seedFor(base)
			if err != nil {
				return err
			}
			sd := *src.seed
			sd.ChangedProcs = fp.ChangedSegments(src.fp)
			opt.SeedDesign = &sd
			name = "synth.synthesize_seeded"
		}
	}
	var res *synth.Result
	rp.model(rp.timed(name, root, func() { res, err = synth.Synthesize(pat, opt) }), pat)
	if err != nil {
		return err
	}
	rp.counts.synth(res.Stats)
	rp.timed("synth.save_design", root, func() { err = synth.SaveDesign(io.Discard, res.Net, res.Table) })
	rp.model(rp.timed("trace.summarize", root, func() { trace.Summarize(pat) }), pat)
	if rp.cfg.WarmThreshold >= 0 {
		rp.timed("synth.seed_from_design", root, func() { synth.SeedFromDesign(res.Net, res.Table) })
	}
	return err
}

func isNAS(name string) bool {
	for _, n := range nas.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// seedFor prepares prime `base` as a warm-start seed, the way the server's
// warm index holds it: the seed extracted from its design plus the
// fingerprint of its pattern.
func (rp *replayer) seedFor(base int) (*seedSource, error) {
	if src, ok := rp.seeds[base]; ok {
		return src, nil
	}
	if base < 0 || base >= len(rp.primes) {
		return nil, fmt.Errorf("seeded response for an op with no base prime")
	}
	var f designFields
	if err := json.Unmarshal(rp.primes[base].body, &f); err != nil {
		return nil, err
	}
	net, table, err := synth.LoadDesign(bytes.NewReader(f.Design))
	if err != nil {
		return nil, err
	}
	var req serve.DesignRequest
	if err := json.Unmarshal(rp.primeOps[base].Body(), &req); err != nil {
		return nil, err
	}
	pat, err := requestPattern(&req)
	if err != nil {
		return nil, err
	}
	src := &seedSource{seed: synth.SeedFromDesign(net, table), fp: trace.FingerprintPattern(pat)}
	rp.seeds[base] = src
	return src, nil
}

// restart replaces the server with a fresh one over the same data
// directory — hit_replay's set-up — under a serve.restart_scan span, then
// replays the scan's dominant per-entry work: LoadDesign on every design the
// store holds.
func (rp *replayer) restart() error {
	rp.req++
	var err error
	scan := rp.timed("serve.restart_scan", -1, func() { rp.srv, err = serve.New(rp.cfg) })
	if err != nil {
		return err
	}
	for _, p := range rp.primes {
		var f designFields
		if err := json.Unmarshal(p.body, &f); err != nil {
			return err
		}
		rp.timed("synth.load_design", scan, func() { _, _, _ = synth.LoadDesign(bytes.NewReader(f.Design)) })
	}
	return nil
}
