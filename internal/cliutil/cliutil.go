// Package cliutil holds the flag plumbing shared by the repro commands:
// the -seed/-workers knobs, the -cpuprofile/-memprofile pprof pair, and the
// -report flag that attaches an obs.Collector and writes a RunReport JSON
// artifact on exit. Each command registers only the groups it uses, so the
// flags keep identical names, defaults, and help text everywhere without
// each main.go re-implementing them.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/obs"
)

// Flags collects the shared command-line options. Zero value is ready;
// call the Register* methods you need before flag.Parse.
type Flags struct {
	Seed       int64
	Workers    int
	CPUProfile string
	MemProfile string
	Report     string

	// Hier group (RegisterHier): the clustering of two-level chiplet mode.
	// Clusters empty means flat (single-level) operation.
	Clusters    string
	MaxGateways int

	collector *obs.Collector
}

// RegisterSeed registers -seed (default 1) with the given usage string.
func (f *Flags) RegisterSeed(fs *flag.FlagSet, usage string) {
	fs.Int64Var(&f.Seed, "seed", 1, usage)
}

// RegisterWorkers registers -workers with the standard contract note.
func (f *Flags) RegisterWorkers(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", 0,
		"fan-out goroutines (0 = GOMAXPROCS); output is identical for any value")
}

// RegisterProfiles registers -cpuprofile and -memprofile.
func (f *Flags) RegisterProfiles(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// RegisterHier registers the two-level clustering flags, -clusters and
// -max-gateways, with identical names, defaults, and help text for every
// command that can partition a pattern. The NoI level's own knobs belong to
// netgen, their only reader.
func (f *Flags) RegisterHier(fs *flag.FlagSet) {
	fs.StringVar(&f.Clusters, "clusters", "",
		`cluster spec for two-level chiplet mode: "4", "flow:4", "blocks:4", or explicit "0-3;4-7@4,7" (empty = flat)`)
	fs.IntVar(&f.MaxGateways, "max-gateways", 0,
		"cap on gateway processors per cluster (0 = every boundary processor)")
}

// RegisterReport registers -report.
func (f *Flags) RegisterReport(fs *flag.FlagSet) {
	fs.StringVar(&f.Report, "report", "",
		"write a RunReport telemetry JSON (schema "+obs.ReportSchema+") to this file")
}

// StartProfiles starts the CPU profile if requested and returns a stop
// function that finishes the CPU profile and writes the heap profile.
// The stop function must run before the process exits (defer it from main
// only if main never calls os.Exit on the success path).
func (f *Flags) StartProfiles() (stop func() error, err error) {
	if f.CPUProfile != "" {
		pf, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return nil, err
		}
	}
	return func() error {
		if f.CPUProfile != "" {
			pprof.StopCPUProfile()
		}
		if f.MemProfile != "" {
			pf, err := os.Create(f.MemProfile)
			if err != nil {
				return err
			}
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// Observer returns the telemetry sink implied by -report: a shared
// Collector when a report path was given, or a nil Observer — the
// allocation-free disabled path — otherwise.
func (f *Flags) Observer() obs.Observer {
	if f.Report == "" {
		return nil
	}
	if f.collector == nil {
		f.collector = obs.NewCollector()
	}
	return f.collector
}

// WriteReport validates and writes the RunReport to the -report path.
// No-op without -report. The optional pattern function (e.g. one returning
// a trace.Stats) runs only when a report is written; its value is embedded
// under the report's "pattern" key.
func (f *Flags) WriteReport(tool string, pattern func() any) error {
	if f.Report == "" {
		return nil
	}
	rep := f.collector.Report(tool)
	if pattern != nil {
		rep.Pattern = pattern()
	}
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("cliutil: invalid report: %w", err)
	}
	return rep.WriteFile(f.Report)
}
