// Command bench is the repository's benchmark: four named workloads over
// the design server and the paper pipeline, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md here
// and BENCHMARK.json at the repository root.
//
// Usage (from the repository root):
//
//	go run ./bench -workload <name> -seed <n> [-trace 0|1]
//	go run ./bench -check [-workload <name>]
//	go run ./bench -update-golden
//	go run ./bench -manifest > BENCHMARK.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when the
// run could not be measured, an operation failed, or an output disagreed
// with bench/golden.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"

	"repro/bench/workload"
)

// cleanups is the teardown that must run on every exit path, including a
// signal: stopping nocd and removing its data directory. Every teardown is
// safe to run twice, so a run may also release its resources itself.
type cleanups struct {
	mu      sync.Mutex
	fns     []func()
	aborted bool
}

var errInterrupted = errors.New("interrupted")

// acquire runs start under the lock and registers the teardown it returns,
// so that a resource never exists without its teardown registered. Once
// abort has run it refuses: the process is on its way out.
func (c *cleanups) acquire(start func() (release func(), err error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted {
		return errInterrupted
	}
	release, err := start()
	if err != nil {
		return err
	}
	c.fns = append(c.fns, release)
	return nil
}

// run tears down everything acquired so far, newest first.
func (c *cleanups) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
	c.fns = nil
}

// abort is run for an interrupt: nothing can be acquired afterwards.
func (c *cleanups) abort() {
	c.mu.Lock()
	c.aborted = true
	c.mu.Unlock()
	c.run()
}

func main() {
	var (
		name = flag.String("workload", "", "workload to run: cold_synth, warm_variants, hit_replay, paper_cells")
		seed = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		// The driver's command line ends in `--seconds <run_seconds>`, so the
		// flag has to exist; BENCHMARK.json's run_seconds is its only caller.
		secs    = flag.Float64("seconds", runSeconds, "length of the timed window; the driver passes BENCHMARK.json's run_seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
		check   = flag.Bool("check", false, "run every workload (or -workload) over two sets of ten seeds and compare with the bounds")
		update  = flag.Bool("update-golden", false, "regenerate bench/golden.json from this commit's outputs")
		emit    = flag.Bool("manifest", false, "print BENCHMARK.json as the code defines it and exit")
		outFlag = flag.String("out", filepath.Join("bench", "out"), "directory for the nocd binary, data directories and trace dumps")
	)
	flag.Parse()
	if *emit {
		raw, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Printf("%s\n", raw)
		return
	}
	if _, err := os.Stat(filepath.Join("cmd", "nocd")); err != nil {
		fatal(fmt.Errorf("run from the repository root: %v", err))
	}
	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		fatal(err)
	}
	clean := &cleanups{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		clean.abort()
		os.Exit(130)
	}()

	switch {
	case *check:
		if err := runCheck(*name, *outFlag); err != nil {
			fatal(err)
		}
		return
	case *update:
		if err := updateGolden(*outFlag, clean); err != nil {
			clean.run()
			fatal(err)
		}
		return
	}

	spec, ok := workload.Lookup(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	g, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	res, err := run(runOpts{spec: spec, seed: *seed, seconds: *secs, trace: *traced != 0,
		setups: 3, outDir: *outFlag, cleanup: clean}, g, os.Stdout)
	clean.run()
	if err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// updateGolden regenerates bench/golden.json: every cold_synth pool entry,
// the priming designs of the warm and hit workloads (with a short window of
// variants, which must reproduce their base's digest), and every cell of the
// full and miniature sweeps with FlitHops from the traced replay.
func updateGolden(outDir string, clean *cleanups) error {
	g := &golden{Designs: map[string]goldenDesign{}, Cells: map[string][]goldenSim{}}
	for _, spec := range workload.Specs() {
		o := runOpts{spec: spec, seed: 1, seconds: 3, update: true, setups: 1, outDir: outDir, cleanup: clean}
		if spec.Name == workload.ColdSynth {
			o.seconds = 3600 // the stream ends with the pool
		}
		for _, mini := range []bool{false, true} {
			o.mini = mini
			o.trace = spec.Clients == 0
			fmt.Printf("# %s mini=%t\n", spec.Name, mini)
			res, err := run(o, g, os.Stdout)
			clean.run()
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: outputs are not reproducible; golden.json not written", spec.Name)
			}
		}
	}
	return g.save()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
