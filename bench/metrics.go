package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/bench/workload"
)

// metricDef is one BENCHMARK.json metric. Bound is zero on per-layer
// metrics, which carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics an untraced run reports, what a user of nocd
// or paperfigs would see; the six timings at the reference host's speed
// (host.go), memory as measured. Bounds are the share of the parent's median
// by which a metric may worsen before a change counts as a regression. The
// issue asked for 0.10 (0.15 on memory, 0.20 on set-up); they sit at the
// contract's ceiling of 0.25 because ten-seed spreads on this 2-core sandbox
// reach 0.12 even at reference speed and the run is already as long as the
// driver's time cap allows: README.md, "Noise", lists the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"focus_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// layerMs are the layer spans of the traced replay: one span per call from
// bench/ into a module's public function, reported as self time per
// operation in milliseconds (see layerMetrics).
var layerMs = []string{
	"nas.generate", "collective.generate", "trace.decode", "trace.encode", "serve.key",
	"trace.fingerprint", "trace.summarize", "model.contention_periods", "model.max_cliques",
	"synth.synthesize_cold", "synth.synthesize_seeded", "synth.seed_from_design",
	"synth.save_design", "synth.load_design",
	"hier.synthesize", "hier.save_design", "hier.flatten", "hier.simulate",
	"floorplan.place",
	"flitsim.run_generated", "flitsim.run_mesh", "flitsim.run_torus", "flitsim.run_crossbar", "flitsim.run_ring",
	"serve.handler_self", "serve.restart_scan", "harness.cell_self",
}

// scraped are the nocd counters read over HTTP from /v1/metrics after the
// untraced pass of a traced run.
var scraped = []string{
	"serve.cache_hit", "serve.cache_miss", "serve.warm_seeded", "serve.warm_cold",
	"serve.store_mem_hit", "serve.store_disk_hit", "serve.store_disk_write", "serve.queue_full",
	"synth.runs",
}

// perLayer lists the metrics a traced run reports.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range layerMs {
		out = append(out, metricDef{Name: n + "_ms", Unit: "ms", Better: "lower"})
	}
	count := func(better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "count", Better: better})
		}
	}
	ratio := func(better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "ratio", Better: better})
		}
	}
	count("lower", "model.periods_count", "model.max_cliques_count",
		"synth.restarts_run", "synth.moves_evaluated", "coloring.fast_gap",
		"flitsim.exec_cycles", "flitsim.flit_hops", "flitsim.vc_stalls", "flitsim.kills")
	ratio("higher", "synth.commit_ratio", "synth.workers_speedup")
	out = append(out, metricDef{Name: "flitsim.host_ns_per_sim_cycle", Unit: "ns", Better: "lower"})
	out = append(out, metricDef{Name: "serve.response_bytes", Unit: "B", Better: "lower"})
	for _, n := range scraped {
		better := "lower"
		if n == "serve.cache_hit" || n == "serve.warm_seeded" || n == "serve.store_mem_hit" {
			better = "higher"
		}
		count(better, n)
	}
	ratio("higher", "serve.seeded_ratio", "serve.mem_hit_ratio", "bench.attributed_share", "bench.host_speed")
	ratio("lower", "serve.warm_drift_ratio", "obs.collector_overhead_share", "bench.trace_overhead_share")
	// The two exact-zero gates: the contract keeps always-zero metrics out
	// of end_to_end, so they are named here and printed by every run; a run
	// exits non-zero when either is above 0.
	ratio("lower", "failed_share")
	count("lower", "wrong_outputs")
	for _, c := range workload.AllClasses() {
		out = append(out, metricDef{Name: "class." + c + ".p50_ms", Unit: "ms", Better: "lower"})
	}
	return out
}

// runSeconds is the length of one driver run's timed window.
const runSeconds = 25

// manifest is BENCHMARK.json. The file at the repository root is this
// value rendered by `go run ./bench -manifest`; the unit test holds the two
// equal.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, s := range workload.Specs() {
		m.Workloads = append(m.Workloads, manifestWhy{s.Name, s.Why})
	}
	return m
}

// value is one reported metric: the number, its unit, and how many samples
// stand behind it (printed beside every timing, not part of the result line).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	// measured is the number before it was brought to the reference host's
	// speed; zero on metrics that are reported as measured.
	measured float64
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	wrong     int
}

// report prints every metric of defs by name with its unit and sample count,
// then the result line. A metric the run did not measure reads 0.
func (r *result) report(w io.Writer, defs []metricDef, got map[string]value) {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v := got[d.Name]
		v.Unit = d.Unit
		r.Metrics[d.Name] = v
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d", d.Name, v.Value, d.Unit, v.n)
		if v.measured != 0 && v.measured != v.Value {
			fmt.Fprintf(w, "  (measured %.6g)", v.measured)
		}
		fmt.Fprintln(w)
	}
	if _, listed := r.Metrics["failed_share"]; !listed {
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d\n", "failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted)
		fmt.Fprintf(w, "%-34s %16d %-6s n=%d\n", "wrong_outputs", r.wrong, "count", r.Attempted)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

// percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
