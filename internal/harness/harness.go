// Package harness reproduces every quantitative result of the paper's
// evaluation (Section 4): the Figure 7 resource comparison, the Figure 8
// performance comparison, the Section 4.2 cross-pattern sensitivity study,
// the Section 3.4 design walkthrough on the Figure 1 pattern, and the
// methodology ablations called out in DESIGN.md. Each experiment returns
// structured rows and can render itself as a text table.
package harness

import (
	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/synth"
)

// Config scales the experiments. The zero value reproduces the paper-scale
// runs; Quick() shrinks workloads for tests.
type Config struct {
	// Seed drives every randomized component.
	Seed int64
	// Iterations overrides the per-benchmark main-loop iteration count
	// (0 = generator defaults).
	Iterations int
	// ByteScale scales message sizes (0 = 1.0).
	ByteScale float64
	// SynthRestarts overrides synthesis restarts (0 = default).
	SynthRestarts int
	// Workers bounds the fan-out of the experiment cells, of the
	// independent stages inside a Figure 8, collective or chiplet cell
	// (the baseline replays run while the generated network is
	// synthesized), and of each synthesis's restarts: 0 selects
	// GOMAXPROCS, 1 forces serial execution. Results are identical for
	// every worker count — cells and stages are independent, collected in
	// input order, and the error the serial loop would hit first wins (see
	// internal/parallel).
	Workers int
	// Obs receives telemetry from the harness itself (one span per
	// experiment cell, cell counts) and is propagated to the
	// synthesis, floorplan, pattern-generation, and simulation stages it
	// drives. Counter values are identical for every Workers setting; span
	// timings are wall-clock and are not. Nil disables telemetry.
	Obs obs.Observer
}

// Quick returns a configuration small enough for unit tests while
// preserving every phase structure.
func Quick() Config {
	return Config{Seed: 1, Iterations: 1, ByteScale: 0.25, SynthRestarts: 2}
}

// Paper returns the full-scale configuration used by cmd/paperfigs and the
// benchmarks.
func Paper() Config { return Config{Seed: 1} }

func (c Config) nasConfig() nas.Config {
	return nas.Config{Iterations: c.Iterations, ByteScale: c.ByteScale, Obs: c.Obs}
}

func (c Config) synthOptions() synth.Options {
	return synth.Options{Seed: c.Seed, Restarts: c.SynthRestarts, Workers: c.Workers, Obs: c.Obs}
}

// Design bundles everything the experiments need about one synthesized
// network.
type Design struct {
	Benchmark string
	Procs     int
	Pattern   *model.Pattern
	Result    *synth.Result
	Plan      *floorplan.Plan
}

// BuildDesign generates the pattern, synthesizes the network, and
// floorplans it.
func (c Config) BuildDesign(benchmark string, procs int) (*Design, error) {
	pat, err := nas.Generate(benchmark, procs, c.nasConfig())
	if err != nil {
		return nil, err
	}
	return c.designFor(benchmark, procs, pat)
}

// designFor synthesizes and floorplans a network for an already generated
// pattern: the one body behind BuildDesign, BuildCollectiveDesign, the
// generated row of Figure8For and CollectiveFor, MultiApp's shared network
// and the chiplet experiment's flat organization (which must feed the same
// pattern to all three organizations).
func (c Config) designFor(name string, procs int, pat *model.Pattern) (*Design, error) {
	res, err := synth.Synthesize(pat, c.synthOptions())
	if err != nil {
		return nil, err
	}
	plan, err := floorplan.Place(res.Net, floorplan.Options{Obs: c.Obs})
	if err != nil {
		return nil, err
	}
	return &Design{Benchmark: name, Procs: procs, Pattern: pat, Result: res, Plan: plan}, nil
}

// simulateGenerated runs a pattern on a design's network with its
// floorplanned link delays.
func (c Config) simulateGenerated(pat *model.Pattern, d *Design) (flitsim.Result, error) {
	cfg := c.simConfig()
	cfg.LinkDelay = d.Plan.LinkDelay
	return flitsim.RunGenerated(pat, d.Result.Net, d.Result.Table, cfg)
}

// simConfig is the simulator configuration: the Section 4.2 defaults,
// reporting to the harness's Observer.
func (c Config) simConfig() flitsim.Config {
	return flitsim.Config{Obs: c.Obs}
}
