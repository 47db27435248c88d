// The request side of resolve: decoding a /v1/design body, validating its
// knobs, and building its pattern. Nothing here touches the stores; a
// designPlan is everything resolve needs short of the pattern.
package serve

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Bounds on requests, checked before any generator runs: a 60-byte body
// naming a million iterations would otherwise build gigabytes of pattern
// ahead of admission control, the timeout and the body cap. Past them the
// request is a 413 too_large, not a 400. The procs bound also covers an
// inline trace's header (buildPattern); iterations exist only by name. The
// two bounds alone still admit FFT/1,024 × 4,096 iterations, about 260 M
// messages, so a by-name request is also bounded by the message count its
// generator would emit, computed in closed form (workloads.Messages).
const (
	maxRequestProcs      = 1024
	maxRequestIterations = 4096
	maxRequestMessages   = 1 << 20
)

// badRequestError marks request-construction failures that map to 400.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &badRequestError{err: fmt.Errorf(format, args...)}
}

// checkSynth holds synthesis knobs to the bounds the server accepts: a
// request's knobs merged over the server's defaults (planRequest), and those
// defaults themselves (New), so a bad default fails at start instead of
// blaming every client. Zero selects the synth default.
func checkSynth(opt synth.Options) error {
	if opt.MaxDegree < 0 || opt.MaxProcsPerSwitch < 0 {
		return badRequest("max_degree and max_procs must be non-negative")
	}
	if opt.Restarts < 0 || opt.Restarts > 64 {
		return badRequest("restarts %d outside [1, 64]", opt.Restarts)
	}
	if !opt.Variant.Valid() {
		return badRequest("unknown synthesis variant %d", opt.Variant)
	}
	return nil
}

// tooLargeError marks a well-formed request that asks for more than the
// server will build; it maps to 413.
type tooLargeError struct{ msg string }

func (e *tooLargeError) Error() string { return e.msg }

// workloadID is a by-name request's workload identity. With the server's
// workload config fixed for its lifetime, it determines the generated
// pattern — which is what lets the key memo stand in for it.
type workloadID struct {
	benchmark  string
	procs      int
	iterations int // 0: the server's default
}

// designPlan is a decoded, validated request: exactly one pattern source
// (workload or trace), the effective synthesis options, the optional hier
// block with its parsed cluster spec, and the admission lane.
type designPlan struct {
	workload workloadID // by-name source; zero for an inline trace
	trace    []byte     // inline noctrace v1 source, unescaped; empty for a workload
	id       memoID     // the pattern's identity in the key memo
	opt      synth.Options
	hier     *HierRequest // validated at the grammar level; nil for a flat request
	spec     *hier.Spec   // hier.Clusters parsed; nil for a flat request
	lane     string
}

// keyExtras lists the fingerprint components the plan appends to Key beyond
// the pattern and the flat options: the hier knobs, with the spec rendered
// canonically, so "4", "flow:4", and a reordered explicit spelling of the
// same groups share an entry.
func (pl *designPlan) keyExtras() []string {
	h := pl.hier
	if h == nil {
		return nil
	}
	return []string{fmt.Sprintf("hier=%s maxgw=%d gww=%d noidelay=%d noimaxdeg=%d noimaxprocs=%d",
		pl.spec.Canonical(), h.MaxGateways, h.GatewayWidth, h.NoILinkDelay, h.NoIMaxDegree, h.NoIMaxProcs)}
}

// hierOptions builds the two-level synthesis options: both levels inherit
// base, the flat request knobs and observer, with the NoI overrides applied
// by hier.NoIOptions. The partition itself can still fail against the
// concrete pattern, which the synthesis path maps to a client error.
func (pl *designPlan) hierOptions(base synth.Options) hier.Options {
	h := pl.hier
	return hier.Options{
		Spec:         pl.spec,
		MaxGateways:  h.MaxGateways,
		GatewayWidth: h.GatewayWidth,
		NoILinkDelay: h.NoILinkDelay,
		NoC:          base,
		NoI:          hier.NoIOptions(base, h.NoIMaxDegree, h.NoIMaxProcs),
		Obs:          base.Obs,
	}
}

// planRequest decodes the body and validates everything that can be judged
// without the pattern: the lane, the shape and bounds of the pattern source,
// the synthesis knobs and the hier block. It builds no pattern and consults
// no memo. Failures are client errors (400, or 413 past the bounds).
func (s *Server) planRequest(raw []byte) (*designPlan, error) {
	req, trace, err := decodeRequest(raw)
	if err != nil {
		return nil, badRequest("decoding request: %v", err)
	}
	return s.plan(&req, trace)
}

// plan validates a decoded request whose inline trace, if any, is trace
// (req.Trace is not read).
func (s *Server) plan(req *DesignRequest, trace []byte) (*designPlan, error) {
	pl := &designPlan{lane: req.Lane, trace: trace}
	switch pl.lane {
	case "":
		pl.lane = LaneInteractive
	case LaneInteractive, LaneBulk:
	default:
		return nil, badRequest("unknown lane %q (want %q or %q)", req.Lane, LaneInteractive, LaneBulk)
	}

	switch {
	case req.Benchmark != "" && len(trace) > 0:
		return nil, badRequest("benchmark and trace are mutually exclusive")
	case req.Benchmark != "":
		if req.Procs <= 0 {
			return nil, badRequest("benchmark requests need procs > 0, got %d", req.Procs)
		}
		if req.Procs > maxRequestProcs {
			return nil, &tooLargeError{fmt.Sprintf("procs %d above the limit of %d", req.Procs, maxRequestProcs)}
		}
		if req.Iterations > maxRequestIterations {
			return nil, &tooLargeError{fmt.Sprintf("iterations %d above the limit of %d", req.Iterations, maxRequestIterations)}
		}
		pl.workload = workloadID{benchmark: req.Benchmark, procs: req.Procs, iterations: max(req.Iterations, 0)}
		if n := workloads.Messages(req.Benchmark, req.Procs, s.workloadConfig(pl.workload)); n > maxRequestMessages {
			return nil, &tooLargeError{fmt.Sprintf("%s at %d procs is %d messages, above the limit of %d", req.Benchmark, req.Procs, n, maxRequestMessages)}
		}
	case len(trace) == 0:
		return nil, badRequest("request needs a benchmark or an inline trace")
	}

	pl.opt = s.cfg.Synth
	if req.Seed != 0 {
		pl.opt.Seed = req.Seed
	}
	if req.MaxDegree != 0 {
		pl.opt.MaxDegree = req.MaxDegree
	}
	if req.MaxProcs != 0 {
		pl.opt.MaxProcsPerSwitch = req.MaxProcs
	}
	if req.Restarts != 0 {
		pl.opt.Restarts = req.Restarts
	}
	if err := checkSynth(pl.opt); err != nil {
		return nil, err
	}

	if h := req.Hier; h != nil {
		if h.Clusters == "" {
			return nil, badRequest("hier requests need a clusters spec")
		}
		spec, err := hier.ParseSpec(h.Clusters)
		if err != nil {
			return nil, &badRequestError{err: err}
		}
		if h.MaxGateways < 0 || h.GatewayWidth < 0 || h.NoILinkDelay < 0 ||
			h.NoIMaxDegree < 0 || h.NoIMaxProcs < 0 {
			return nil, badRequest("hier knobs must be non-negative")
		}
		pl.hier, pl.spec = h, spec
	}
	pl.id = memoID{workload: pl.workload}
	if len(trace) > 0 {
		pl.id.trace = sha256.Sum256(trace)
	}
	return pl, nil
}

// buildPattern builds the plan's pattern: an inline trace decoded, or a
// named workload generated. Every pattern the server builds is built here —
// by requestKey on a memo miss, or by a flight leader whose key came from
// the memo and whose request is hier or has no memoised model — and counted
// on serve.pattern_generated.
func (s *Server) buildPattern(plan *designPlan) (*model.Pattern, error) {
	if len(plan.trace) == 0 {
		id := plan.workload
		p, err := workloads.Generate(id.benchmark, id.procs, s.workloadConfig(id))
		if errors.As(err, new(*workloads.Error)) {
			return nil, &badRequestError{err: err}
		}
		if err == nil {
			obs.Count(s.col, "serve.pattern_generated", 1)
		}
		return p, err
	}
	p, err := trace.DecodeBytes(plan.trace)
	if err != nil {
		return nil, badRequest("decoding trace: %v", err)
	}
	// The same bound by-name requests meet in planRequest: the decoder takes
	// any procs header, and everything from here on allocates per processor.
	if p.Procs > maxRequestProcs {
		return nil, &tooLargeError{fmt.Sprintf("trace procs %d above the limit of %d", p.Procs, maxRequestProcs)}
	}
	obs.Count(s.col, "serve.pattern_generated", 1)
	return p, nil
}

// workloadConfig is the generator config of a by-name request: the server's
// defaults with the request's iterations, if it names any. Obs stays nil:
// pattern generation is request work, not server telemetry.
func (s *Server) workloadConfig(id workloadID) workloads.Config {
	cfg := s.cfg.Workload
	cfg.Obs = nil
	if id.iterations > 0 {
		cfg.Iterations = id.iterations
	}
	return cfg
}
