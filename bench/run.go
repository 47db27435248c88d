package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/bench/workload"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// runOpts selects one benchmark run.
type runOpts struct {
	spec    workload.Spec
	seed    int64
	seconds float64
	trace   bool
	// mini selects the unit-test miniature of the workload.
	mini bool
	// update records golden outputs instead of checking them.
	update bool
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// outDir holds everything a run writes: the nocd binary, data
	// directories, and the trace dump.
	outDir string
	// cleanup registers teardown that must also run if the process is
	// interrupted.
	cleanup *cleanups
}

// run executes one workload and prints its metrics and result line to w. The
// error is non-nil when the run could not be measured at all — the child
// died, set-up failed — as opposed to measured with failed operations.
func run(o runOpts, g *golden, w io.Writer) (*result, error) {
	chk := newChecker(g, o.update)
	var got map[string]value
	var t tally
	var err error
	switch {
	case o.spec.Clients == 0 && o.trace:
		got, t, err = traceCells(o, chk)
	case o.spec.Clients == 0:
		got, t, err = measureCells(o, chk)
	case o.trace:
		got, t, err = traceServer(o, chk)
	default:
		got, t, err = measureServer(o, chk)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range t.errs {
		fmt.Fprintln(w, "error:", e)
	}
	res := &result{Correct: t.wrong == 0 && t.failed == 0, Attempted: t.attempted, Failed: t.failed, wrong: t.wrong}
	defs := endToEnd
	if o.trace {
		defs = perLayer()
		got["failed_share"] = value{Value: float64(t.failed) / float64(max(t.attempted, 1)), n: t.attempted}
		got["wrong_outputs"] = value{Value: float64(t.wrong), n: t.attempted}
	} else {
		fmt.Fprintf(w, "host speed %.4f (wall) %.4f (cpu) of the reference host over %d probes; timings are reported at the reference speed\n",
			got["host_speed"].Value, got["host_cpu"].Value, got["host_speed"].n)
	}
	res.report(w, defs, got)
	return res, nil
}

// serverEnv is a primed nocd ready for the timed window.
type serverEnv struct {
	child   *child
	dataDir string
	primes  []primed
}

func (e *serverEnv) close() {
	if e == nil {
		return
	}
	e.child.stop()
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

// setUp brings one nocd from nothing to ready: start, readiness, priming
// through one client, and for a persistent store a drain and a restart over
// the same directory (scan plus warm-index rebuild). The data directory and
// each child are registered with o.cleanup the moment they exist.
func setUp(o runOpts, bin string, chk *checker, t *tally) (env *serverEnv, err error) {
	env = &serverEnv{}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	args := o.spec.Server.Flags()
	if o.spec.DataDir {
		if env.dataDir, err = tempDataDir(o); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", env.dataDir)
	}
	if env.child, err = startChild(o.cleanup, bin, args...); err != nil {
		return nil, err
	}
	tg := newHTTPTarget(env.child.url)
	env.primes, err = prime(tg, o.spec.Primes(o.mini), chk, t)
	tg.close()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, env.child.logs())
	}
	if o.spec.DataDir {
		env.child.stop()
		if env.child, err = startChild(o.cleanup, bin, args...); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// tempDataDir makes a store directory under the run's output directory and
// registers its removal.
func tempDataDir(o runOpts) (dir string, err error) {
	err = o.cleanup.acquire(func() (func(), error) {
		dir, err = os.MkdirTemp(o.outDir, "data-")
		return func() { os.RemoveAll(dir) }, err
	})
	return dir, err
}

// window drives the timed window against a primed nocd, probing the host
// between its segments, and fails the run if the child died under it.
func window(o runOpts, env *serverEnv, stream *workload.Stream, d time.Duration, minOps int, chk *checker,
	meter *hostMeter) (loadResult, error) {
	targets := make([]target, o.spec.Clients)
	for i := range targets {
		tg := newHTTPTarget(env.child.url)
		defer tg.close()
		targets[i] = tg
	}
	res := runLoad(o.spec, targets, stream, d, minOps, env.primes, chk, env.child.alive, meter)
	if !env.child.alive() {
		return res, fmt.Errorf("nocd died during the run: %v\n%s", env.child.err, env.child.logs())
	}
	return res, nil
}

// measureServer is the untraced run of a server workload: set-up (repeated,
// median reported), then one timed closed-loop window.
func measureServer(o runOpts, chk *checker) (map[string]value, tally, error) {
	var t tally
	bin, err := buildNocd(o.cleanup, o.outDir)
	if err != nil {
		return nil, t, err
	}
	var env *serverEnv
	defer func() { env.close() }()
	var setups []float64
	var setupHost, host hostMeter
	for i := 0; i < o.setups; i++ {
		env.close()
		setupHost.probe()
		t0 := time.Now()
		if env, err = setUp(o, bin, chk, &t); err != nil {
			return nil, t, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupHost.probe()
	pid := env.child.cmd.Process.Pid
	cpu0, _, err := procUsage(pid)
	if err != nil {
		return nil, t, err
	}
	res, err := window(o, env, o.spec.NewStream(o.seed, o.mini), seconds(o.seconds), 0, chk, &host)
	if err != nil {
		return nil, t, err
	}
	cpu1, rss, err := procUsage(pid)
	if err != nil {
		return nil, t, err
	}
	t.add(res.tally)
	return endToEndMetrics(o.spec, res, setups, cpu1-cpu0, rss, &setupHost, &host), t, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// endToEndMetrics turns one timed window into the untraced metrics. Timings
// are reported at the reference host's speed (see host.go): a time measured
// while the host ran at speed s is s times as long there, a rate 1/s times
// as high. The measured numbers are kept beside them for the printed table.
func endToEndMetrics(spec workload.Spec, res loadResult, setups []float64, cpu time.Duration, rssMB float64,
	setupHost, host *hostMeter) map[string]value {
	speed := host.speed()
	var all, focus []float64
	for _, s := range res.samples {
		all = append(all, s.ms)
		if strings.HasPrefix(s.class, spec.Focus) {
			focus = append(focus, s.ms)
		}
	}
	n := len(all)
	timing := func(measured, scale float64, n int) value {
		return value{Value: measured * scale, measured: measured, n: n}
	}
	got := map[string]value{
		"setup_s":      timing(median(setups), setupHost.speed(), len(setups)),
		"op_p50_ms":    timing(median(all), speed, n),
		"op_tail_ms":   timing(percentile(all, spec.TailPct), speed, n),
		"focus_p50_ms": timing(median(focus), speed, len(focus)),
		"peak_rss_mb":  {Value: rssMB, n: 1},
		// Not metrics: run prints the two speeds above the table.
		"host_speed": {Value: speed, n: len(host.wallMs)},
		"host_cpu":   {Value: host.cpuSpeed(), n: len(host.cpuMs)},
	}
	if n > 0 {
		got["ops_per_s"] = timing(float64(n)/res.wall.Seconds(), 1/speed, n)
		got["cpu_ms_per_op"] = timing(float64(cpu.Nanoseconds())/1e6/float64(n), host.cpuSpeed(), n)
	}
	return got
}

// measureCells is the untraced run of paper_cells: one driver goroutine
// running whole sweeps through the harness. Set-up is loading the pipeline's
// lazy state with the small cells, repeated like a server set-up.
func measureCells(o runOpts, chk *checker) (map[string]value, tally, error) {
	var t tally
	var setups []float64
	var setupHost, host hostMeter
	for i := 0; i < o.setups; i++ {
		setupHost.probe()
		t0 := time.Now()
		for _, op := range workload.Cells(o.mini) {
			if op.Class != "cell.nas-small" {
				continue
			}
			if _, err := runCell(op.Cell); err != nil {
				return nil, t, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupHost.probe()
	stream := o.spec.NewStream(o.seed, o.mini)
	cpu0, _, err := procUsage(os.Getpid())
	if err != nil {
		return nil, t, err
	}
	var res loadResult
	start := time.Now()
	var probed time.Time
	for time.Since(start) < seconds(o.seconds) || !stream.AtBoundary() {
		if time.Since(probed) >= loadSegment {
			host.probe()
			probed = time.Now()
		}
		op, _ := stream.Next()
		t.attempted++
		t0 := time.Now()
		sims, err := runCell(op.Cell)
		t1 := time.Now()
		if err != nil {
			t.fail(err)
			continue
		}
		res.samples = append(res.samples, sample{class: op.Class, ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6, done: t1.Sub(start)})
		if err := chk.cell(op.Cell.Key(), sims, false); err != nil {
			t.wrongOutput(err)
		}
	}
	host.probe()
	// The probes ran on this process's clock and CPU; neither is the cells'.
	res.wall = time.Since(start) - host.spent
	cpu1, rss, err := procUsage(os.Getpid())
	if err != nil {
		return nil, t, err
	}
	return endToEndMetrics(o.spec, res, setups, cpu1-cpu0-host.spent, rss, &setupHost, &host), t, nil
}

// perCall are the set-up layers, reported as mean self time per call. Every
// other layer is reported per operation: its total self time over the
// replayed operations divided by their number, so the layers of a workload
// add up to its mean operation and a rare but heavy call is not hidden
// behind a cheap median.
var perCall = map[string]bool{"serve.restart_scan": true, "synth.load_design": true}

// layerMetrics turns the recorded spans, the replay's counts, and the two
// replay walls into per-layer metrics.
func layerMetrics(rec *recorder, c counts, untraced, traced time.Duration) map[string]value {
	got := map[string]value{}
	ops := 0
	var roots float64
	for _, s := range rec.spans {
		if s.Parent < 0 && !perCall[s.Name] {
			ops++
			roots += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	var layers float64
	for name, xs := range rec.selfMs() {
		metric, per := name+"_ms", float64(ops)
		switch {
		case perCall[name]:
			per = float64(len(xs))
		case name == "serve.handler" || name == "harness.cell":
			metric = name + "_self_ms"
		default:
			layers += sum(xs)
		}
		if per > 0 {
			got[metric] = value{Value: sum(xs) / per, n: len(xs)}
		}
	}
	// Attribution: the share of the operations' wall that the replayed
	// module calls account for; handler or cell self time is the rest.
	if roots > 0 {
		got["bench.attributed_share"] = value{Value: layers / roots, n: ops}
	}
	count := func(name string, v int64) { got[name] = value{Value: float64(v), n: 1} }
	count("model.periods_count", c.periods)
	count("model.max_cliques_count", c.maxCliques)
	count("synth.restarts_run", c.restarts)
	count("synth.moves_evaluated", c.movesEvaluated)
	count("coloring.fast_gap", c.fastGaps)
	count("flitsim.exec_cycles", c.execCycles)
	count("flitsim.flit_hops", c.flitHops)
	count("flitsim.vc_stalls", c.vcStalls)
	count("flitsim.kills", c.kills)
	if c.movesEvaluated > 0 {
		got["synth.commit_ratio"] = value{Value: float64(c.movesCommitted) / float64(c.movesEvaluated), n: int(c.movesEvaluated)}
	}
	if c.execCycles > 0 {
		got["flitsim.host_ns_per_sim_cycle"] = value{Value: float64(c.simHost.Nanoseconds()) / float64(c.execCycles), n: int(c.execCycles)}
	}
	if untraced > 0 {
		got["bench.trace_overhead_share"] = value{Value: traced.Seconds()/untraced.Seconds() - 1, n: len(rec.spans)}
	}
	return got
}

// classMetrics reports each request class's end-to-end median.
func classMetrics(got map[string]value, samples []sample) {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.class] = append(by[s.class], s.ms)
	}
	for class, xs := range by {
		got["class."+class+".p50_ms"] = value{Value: median(xs), n: len(xs)}
	}
}

// probes measures the two ratios that belong to no workload: how much
// synthesis gains from the restart worker pool, and what an attached
// Collector costs it. Both on CG/16, medians over five runs each way.
func probes(got map[string]value) error {
	pat, err := nas.Generate("CG", 16, nas.Config{})
	if err != nil {
		return err
	}
	const reps = 5
	timeIt := func(opt synth.Options) (float64, error) {
		var xs []float64
		for i := 0; i < reps; i++ {
			opt.Seed = int64(i + 1)
			t0 := time.Now()
			if _, err := synth.Synthesize(pat, opt); err != nil {
				return 0, err
			}
			xs = append(xs, time.Since(t0).Seconds())
		}
		return median(xs), nil
	}
	serial, err := timeIt(synth.Options{Workers: 1})
	if err != nil {
		return err
	}
	pooled, err := timeIt(synth.Options{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	observed, err := timeIt(synth.Options{Workers: runtime.GOMAXPROCS(0), Obs: obs.NewCollector()})
	if err != nil {
		return err
	}
	got["synth.workers_speedup"] = value{Value: serial / pooled, n: reps}
	got["obs.collector_overhead_share"] = value{Value: observed/pooled - 1, n: reps}
	return nil
}

// replayPass primes a fresh in-process server and replays the fixed stream
// prefix through it, recording spans when rec is non-nil. It returns the
// wall of the replayed operations.
func replayPass(o runOpts, rec *recorder, chk *checker, t *tally) (*replayer, time.Duration, error) {
	rp := &replayer{rec: rec, spec: o.spec, seeds: map[int]*seedSource{}}
	if o.spec.Clients == 0 {
		n := o.spec.TraceOps
		if o.mini {
			n = len(workload.Cells(true))
		}
		start := time.Now()
		for _, op := range o.spec.NewStream(o.seed, o.mini).Take(n) {
			if err := rp.cell(op, chk, t); err != nil {
				return nil, 0, err
			}
		}
		return rp, time.Since(start), nil
	}
	dataDir := ""
	if o.spec.DataDir {
		var err error
		if dataDir, err = tempDataDir(o); err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dataDir)
	}
	var err error
	rp.cfg = nocdConfig(o.spec.Server, dataDir)
	if rp.srv, err = serve.New(rp.cfg); err != nil {
		return nil, 0, err
	}
	rp.primeOps = o.spec.Primes(o.mini)
	if rp.primes, err = prime(handlerTarget{rp.srv}, rp.primeOps, chk, t); err != nil {
		return nil, 0, err
	}
	if o.spec.DataDir {
		if err := rp.restart(); err != nil {
			return nil, 0, err
		}
	}
	n := o.spec.TraceOps
	if o.mini {
		n /= 10
	}
	start := time.Now()
	for _, op := range o.spec.NewStream(o.seed, o.mini).Take(n) {
		if err := rp.op(op, chk, t); err != nil {
			return nil, 0, err
		}
	}
	return rp, time.Since(start), nil
}

// replayTwice runs the untraced twin and then the traced replay of the same
// inputs, writes the spans out, and returns the layer metrics.
func replayTwice(o runOpts, chk *checker, t *tally) (map[string]value, *recorder, error) {
	var discard tally
	var host hostMeter
	host.probe()
	_, untraced, err := replayPass(o, nil, chk, &discard)
	if err != nil {
		return nil, nil, err
	}
	host.probe()
	rec := newRecorder()
	rp, traced, err := replayPass(o, rec, chk, t)
	if err != nil {
		return nil, nil, err
	}
	host.probe()
	if err := rec.write(filepath.Join(o.outDir, "trace-"+o.spec.Name+".json")); err != nil {
		return nil, nil, err
	}
	got := layerMetrics(rec, rp.counts, untraced, traced)
	// Layer times are reported as measured; this says how fast the host was.
	got["bench.host_speed"] = value{Value: host.speed(), n: len(host.wallMs)}
	if err := probes(got); err != nil {
		return nil, nil, err
	}
	return got, rec, nil
}

// traceCells is the traced run of paper_cells.
func traceCells(o runOpts, chk *checker) (map[string]value, tally, error) {
	var t tally
	got, rec, err := replayTwice(o, chk, &t)
	if err != nil {
		return nil, t, err
	}
	// The class medians are the harness calls themselves: the root spans.
	var samples []sample
	for _, s := range rec.spans {
		if s.Parent < 0 {
			samples = append(samples, sample{class: s.Class, ms: float64(s.EndNs-s.StartNs) / 1e6})
		}
	}
	classMetrics(got, samples)
	return got, t, nil
}

// traceServer is the traced run of a server workload: a quarter-length
// untraced window against a live nocd (class medians, the /v1/metrics
// scrape, the drift ratio), then the in-process replay of the stream's
// fixed prefix, untraced and traced.
func traceServer(o runOpts, chk *checker) (map[string]value, tally, error) {
	var t tally
	bin, err := buildNocd(o.cleanup, o.outDir)
	if err != nil {
		return nil, t, err
	}
	env, err := setUp(o, bin, chk, &t)
	if err != nil {
		return nil, t, err
	}
	defer env.close()
	minOps := o.spec.TraceOps
	if o.mini {
		minOps /= 10
	}
	res, err := window(o, env, o.spec.NewStream(o.seed, o.mini), seconds(o.seconds/4), minOps, chk, &hostMeter{})
	if err != nil {
		return nil, t, err
	}
	t.add(res.tally)
	counters, err := scrape(env.child.url)
	if err != nil {
		return nil, t, err
	}
	env.close()

	got, _, err := replayTwice(o, chk, &t)
	if err != nil {
		return nil, t, err
	}
	classMetrics(got, res.samples)
	var sizes []float64
	for _, s := range res.samples {
		sizes = append(sizes, float64(s.bytes))
	}
	got["serve.response_bytes"] = value{Value: median(sizes), n: len(sizes)}
	for _, name := range scraped {
		got[name] = value{Value: float64(counters[name]), n: 1}
	}
	ratio := func(name string, num, den int64) {
		if den > 0 {
			got[name] = value{Value: float64(num) / float64(den), n: int(den)}
		}
	}
	ratio("serve.seeded_ratio", counters["serve.warm_seeded"], counters["serve.warm_seeded"]+counters["serve.warm_cold"])
	ratio("serve.mem_hit_ratio", counters["serve.store_mem_hit"], counters["serve.store_mem_hit"]+counters["serve.store_disk_hit"])
	// Drift: the last tenth of the window's operations against the first.
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].done < res.samples[j].done })
	if tenth := len(res.samples) / 10; tenth > 0 {
		var first, last []float64
		for _, s := range res.samples[:tenth] {
			first = append(first, s.ms)
		}
		for _, s := range res.samples[len(res.samples)-tenth:] {
			last = append(last, s.ms)
		}
		got["serve.warm_drift_ratio"] = value{Value: median(last) / median(first), n: tenth}
	}
	return got, t, nil
}

// scrape reads nocd's lifetime counters from /v1/metrics.
func scrape(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("/v1/metrics: " + resp.Status)
	}
	var rep obs.RunReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	return rep.Counters, nil
}
