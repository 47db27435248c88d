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
	"strings"
	"time"

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

	// Server group (RegisterServe): the nocd daemon's listen address,
	// design-cache capacity, per-request synthesis budget, warm-start
	// distance threshold, persistent store directory, fleet membership,
	// and bulk-lane watermark.
	Addr            string
	CacheSize       int
	Timeout         time.Duration
	WarmThreshold   float64
	DataDir         string
	Self            string
	Peers           string
	BulkMaxInflight int

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

// RegisterServe registers the server flag group: -addr, -cache-size,
// -timeout, -warm-threshold, -data-dir, -self, -peers, and
// -bulk-max-inflight, with the same names, defaults, and help text for
// every daemon.
func (f *Flags) RegisterServe(fs *flag.FlagSet) {
	fs.StringVar(&f.Addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&f.CacheSize, "cache-size", 128,
		"designs held by the content-addressed LRU response cache")
	fs.DurationVar(&f.Timeout, "timeout", 2*time.Minute,
		"per-request synthesis budget (exceeded requests return 504)")
	fs.Float64Var(&f.WarmThreshold, "warm-threshold", 0,
		"structural-distance ceiling for warm-start seeding (0 = server default, negative disables)")
	fs.StringVar(&f.DataDir, "data-dir", "",
		"directory for the persistent design store (empty = memory only)")
	fs.StringVar(&f.Self, "self", "",
		"this replica's own base URL as listed in -peers")
	fs.StringVar(&f.Peers, "peers", "",
		"comma-separated fleet member base URLs; enables consistent-hash sharding")
	fs.IntVar(&f.BulkMaxInflight, "bulk-max-inflight", 1,
		"bulk-lane synthesis watermark (lane=bulk beyond it returns 429; negative disables the lane)")
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

// PeerList splits the -peers value into member URLs, dropping empty
// segments, so `-peers ""` and a trailing comma both behave.
func (f *Flags) PeerList() []string {
	var urls []string
	for _, p := range strings.Split(f.Peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	return urls
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
// No-op without -report. The optional pattern value (e.g. a trace.Stats)
// is embedded under the report's "pattern" key.
func (f *Flags) WriteReport(tool string, pattern any) error {
	if f.Report == "" {
		return nil
	}
	rep := f.collector.Report(tool)
	rep.Pattern = pattern
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("cliutil: invalid report: %w", err)
	}
	return rep.WriteFile(f.Report)
}
