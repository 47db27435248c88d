// Command tracegen emits a synthetic communication trace in noctrace v1
// format: any workload internal/workloads names — one of the five NAS-style
// benchmarks or one of the ML collectives.
//
// Usage:
//
//	tracegen -bench CG -procs 16 [-iters 4] [-bytescale 1.0] [-skew 0] [-seed 1] [-o trace.txt] [-report run.json]
//	tracegen -bench ring-allreduce -procs 64 [-iters 2] [-bytescale 1.0] [-o trace.txt]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		bench     = flag.String("bench", "CG", "workload: "+strings.Join(workloads.Names(), ", "))
		procs     = flag.Int("procs", 16, "processor count")
		iters     = flag.Int("iters", 0, "main-loop iterations / collective repeats (0 = workload default)")
		byteScale = flag.Float64("bytescale", 0, "message size multiplier (0 = 1.0)")
		skew      = flag.Float64("skew", 0, "max per-processor start-time skew, trace units")
		out       = flag.String("o", "", "output file (default stdout)")
		shared    cliutil.Flags
	)
	shared.RegisterSeed(flag.CommandLine, "seed for the skew model")
	shared.RegisterReport(flag.CommandLine)
	shared.RegisterHier(flag.CommandLine)
	flag.Parse()

	pat, err := workloads.Generate(*bench, *procs, workloads.Config{
		Iterations: *iters,
		ByteScale:  *byteScale,
		Obs:        shared.Observer(),
	})
	if err != nil {
		fatal(err)
	}
	if *skew > 0 {
		pat = trace.ApplySkew(pat, *skew, shared.Seed)
	}
	if *out == "" {
		err = trace.Encode(os.Stdout, pat)
	} else {
		err = writeTrace(*out, pat)
	}
	if err != nil {
		fatal(err)
	}
	st := trace.Summarize(pat)
	fmt.Fprintf(os.Stderr, "%s: %d procs, %d messages, %d phases, %d contention periods (%d maximal), |C|=%d\n",
		pat.Name, st.Procs, st.Messages, st.Phases, st.Periods, st.MaxPeriods, st.ContentionSz)
	if shared.Clusters != "" {
		if err := emitSplit(pat, &shared, *out); err != nil {
			fatal(err)
		}
	}
	if err := shared.WriteReport("tracegen", st); err != nil {
		fatal(err)
	}
}

// emitSplit partitions the trace per -clusters, prints per-level summaries,
// and — when -o named a file — writes each chiplet's sub-trace next to it
// as <out>.c<i> and the gateway-remapped NoI trace as <out>.noi.
func emitSplit(pat *model.Pattern, shared *cliutil.Flags, out string) error {
	spec, err := hier.ParseSpec(shared.Clusters)
	if err != nil {
		return err
	}
	a, err := hier.Partition(pat, spec, shared.MaxGateways)
	if err != nil {
		return err
	}
	s, err := hier.SplitPattern(pat, a)
	if err != nil {
		return err
	}
	for i, sub := range s.Levels() {
		st := trace.Summarize(sub)
		if i < len(s.Chiplets) {
			fmt.Fprintf(os.Stderr, "  chiplet %d (procs %v, gateways %v): %d messages, |C|=%d\n",
				i, a.Clusters[i], a.Gateways[i], st.Messages, st.ContentionSz)
		} else {
			fmt.Fprintf(os.Stderr, "  noi (%d gateway endpoints): %d messages (%d inter-cluster), |C|=%d\n",
				a.NoIProcs, st.Messages, s.InterMessages, st.ContentionSz)
		}
		// Sub-pattern names extend the trace's: <name>.c<i>, <name>.noi.
		if out != "" {
			if err := writeTrace(out+strings.TrimPrefix(sub.Name, pat.Name), sub); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTrace creates path and encodes the pattern into it; a failed Close is
// reported, since that is where a short write to a full disk can surface.
func writeTrace(path string, p *model.Pattern) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Encode(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
