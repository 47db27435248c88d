// Package workloads resolves a workload name to its communication pattern:
// a NAS benchmark (internal/nas) or a collective schedule
// (internal/collective). It is the one place that knows both registries —
// the design server, the experiment harness and tracegen all resolve names
// through it. The two name sets are disjoint; NAS names are listed first.
//
// The package adds no telemetry of its own: the generators' nas.generate
// and collective.generate spans and their counters fire from inside
// Generate, reporting to Config.Obs.
package workloads

import (
	"errors"
	"fmt"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
)

// Config tunes a named workload. The zero value selects each generator's
// defaults.
type Config struct {
	// Iterations is a NAS benchmark's main-loop iteration count and a
	// collective's repeat count (0 = the generator's default).
	Iterations int
	// ByteScale multiplies all message sizes. Zero means 1.0.
	ByteScale float64
	// Obs receives the generator's telemetry. Nil disables it.
	Obs obs.Observer
}

func (c Config) nas() nas.Config {
	return nas.Config{Iterations: c.Iterations, ByteScale: c.ByteScale, Obs: c.Obs}
}

func (c Config) collective() collective.Config {
	return collective.Config{Repeats: c.Iterations, ByteScale: c.ByteScale, Obs: c.Obs}
}

// Names lists every workload: the NAS benchmarks in the paper's order, then
// the collectives in registry order.
func Names() []string { return append(nas.Names(), collective.Names()...) }

// Error is a request the registries refuse: a name neither knows, or a
// processor count the named workload's shape rejects. Both are the
// caller's mistake, so one errors.As on *Error classifies a client error;
// any other error from Generate is a generator fault.
type Error struct {
	Name string
	err  error // the registry's shape error; nil for an unknown name
}

func (e *Error) Error() string {
	if e.err != nil {
		return e.err.Error()
	}
	return fmt.Sprintf("unknown benchmark or collective %q (benchmarks %v, collectives %v)",
		e.Name, nas.Names(), collective.Names())
}

// Unwrap exposes the registries' typed errors: the *nas.ProcCountError or
// *collective.NodeCountError of a shape error, or both registries'
// unknown-name errors for a name neither knows.
func (e *Error) Unwrap() []error {
	if e.err != nil {
		return []error{e.err}
	}
	return []error{&nas.UnknownBenchmarkError{Name: e.Name}, &collective.UnknownCollectiveError{Name: e.Name}}
}

// Generate builds the named workload's pattern at procs processors.
func Generate(name string, procs int, cfg Config) (*model.Pattern, error) {
	var p *model.Pattern
	var err error
	switch {
	case nas.Generators[name] != nil:
		p, err = nas.Generate(name, procs, cfg.nas())
	case collective.Generators[name] != nil:
		p, err = collective.Generate(name, procs, cfg.collective())
	default:
		return nil, &Error{Name: name}
	}
	var pce *nas.ProcCountError
	var nce *collective.NodeCountError
	if errors.As(err, &pce) || errors.As(err, &nce) {
		return nil, &Error{Name: name, err: err}
	}
	return p, err
}

// Messages returns the number of messages Generate(name, procs, cfg) emits,
// in closed form: nothing is built, so a caller can bound a request before
// generating it. procs is assumed to have the workload's shape (Generate
// rejects it otherwise); an unknown name counts 0.
func Messages(name string, procs int, cfg Config) int {
	if n, ok := nas.Messages(name, procs, cfg.nas()); ok {
		return n
	}
	n, _ := collective.Messages(name, procs, cfg.collective())
	return n
}
