// Command netgen applies the paper's design methodology to a communication
// trace, printing (and optionally saving) the generated minimal
// low-contention network. With -clusters it synthesizes a two-level chiplet
// design instead: one NoC per cluster plus an inter-chiplet NoI, saved as a
// hier-design v1 document.
//
// Usage:
//
//	netgen -trace trace.txt [-maxdegree 5] [-maxprocs 4] [-seed 1] [-restarts 4] [-workers 0] [-o net.json] [-report run.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	netgen -trace trace.txt -clusters flow:4 [-max-gateways 0] [-gateway-width 1] [-noi-link-delay 2] [-noi-maxdegree 5] [-noi-maxprocs 4] [-o hier.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/floorplan"
	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run is netgen on the command-line arguments args, printing its report to
// stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("netgen", flag.ExitOnError)
	def := synth.Options{}.Normalized()
	var (
		tracePath = fs.String("trace", "", "input noctrace file (required)")
		maxDeg    = fs.Int("maxdegree", def.MaxDegree, "maximum switch degree (ports)")
		maxProcs  = fs.Int("maxprocs", def.MaxProcsPerSwitch, "maximum processors per switch")
		restarts  = fs.Int("restarts", def.Restarts, "synthesis restarts")
		out       = fs.String("o", "", "write topology JSON to this file")
		gwWidth   = fs.Int("gateway-width", 0, "links per gateway pipe between a chiplet and the NoI (0 = 1)")
		noiDelay  = fs.Int("noi-link-delay", 0, "cycles per flit hop on NoI and gateway links (0 = 2)")
		noiDeg    = fs.Int("noi-maxdegree", 0, "maximum NoI switch degree (0 = same as the chiplet level)")
		noiProcs  = fs.Int("noi-maxprocs", 0, "maximum gateway endpoints per NoI switch (0 = same as the chiplet level)")
		shared    cliutil.Flags
	)
	shared.RegisterSeed(fs, "synthesis seed")
	shared.RegisterWorkers(fs)
	shared.RegisterProfiles(fs)
	shared.RegisterReport(fs)
	shared.RegisterHier(fs)
	fs.Parse(args)
	stopProfiles, err := shared.StartProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopProfiles(); err == nil {
			err = serr
		}
	}()
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	pat, err := trace.Decode(f)
	f.Close()
	if err != nil {
		return err
	}

	opt := synth.Options{
		Constraints: synth.Constraints{MaxDegree: *maxDeg, MaxProcsPerSwitch: *maxProcs},
		Seed:        shared.Seed,
		Restarts:    *restarts,
		Workers:     shared.Workers,
		Obs:         shared.Observer(),
	}
	if shared.Clusters != "" {
		hopt := hier.Options{
			MaxGateways:  shared.MaxGateways,
			GatewayWidth: *gwWidth,
			NoILinkDelay: *noiDelay,
			NoC:          opt,
			NoI:          hier.NoIOptions(opt, *noiDeg, *noiProcs),
			Obs:          shared.Observer(),
		}
		if err := runHier(stdout, pat, shared.Clusters, hopt, *out); err != nil {
			return err
		}
		return shared.WriteReport("netgen", func() any { return trace.Summarize(pat) })
	}

	// The contention model is computed once: the synthesis reads the
	// cliques, and the report's pattern summary both sets.
	periods := model.ContentionPeriods(pat)
	cliques := model.MaxCliques(periods)
	res, err := synth.SynthesizeCliques(context.Background(), pat, cliques, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pattern %s: %d processors, %d flows, %d maximal contention periods\n",
		pat.Name, pat.Procs, len(pat.Flows()), len(res.Cliques))
	fmt.Fprintf(stdout, "generated network: %d switches, %d links, max degree %d\n",
		res.Net.NumSwitches(), res.Net.TotalLinks(), res.Net.MaxDegree())
	fmt.Fprintf(stdout, "design constraints met: %v\n", res.ConstraintsMet)
	fmt.Fprintf(stdout, "contention-free (Theorem 1, C ∩ R = ∅): %v", res.ContentionFree)
	if !res.ContentionFree {
		fmt.Fprintf(stdout, " (%d witnesses)", len(res.Witnesses))
	}
	fmt.Fprintln(stdout)
	for _, sw := range res.Net.Switches {
		fmt.Fprintf(stdout, "  switch %d: procs %v, degree %d\n", sw.ID, sw.Procs, res.Net.Degree(sw.ID))
	}
	for _, p := range res.Net.Pipes {
		fmt.Fprintf(stdout, "  pipe %d-%d: %d link(s)\n", p.A, p.B, p.Width)
	}

	plan, err := floorplan.Place(res.Net, floorplan.Options{Obs: shared.Observer()})
	if err != nil {
		return err
	}
	meshSw, meshLink := floorplan.MeshBaseline(pat.Procs)
	fmt.Fprintf(stdout, "floorplan: switch area %d (mesh %d), link area %d (mesh %d)\n",
		plan.SwitchArea, meshSw, plan.TotalArea(), meshLink)
	fmt.Fprintln(stdout, plan.Render(res.Net))

	if *out != "" {
		save := func(w io.Writer) error { return synth.SaveDesign(w, res.Net, res.Table) }
		if err := writeFile(*out, save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "design (topology + routes) written to %s\n", *out)
	}
	return shared.WriteReport("netgen", func() any { return trace.SummarizeCliques(pat, periods, cliques) })
}

// runHier synthesizes and reports a two-level chiplet design for the
// -clusters spec on stdout: one NoC per cluster, one NoI over the gateways,
// hier-design v1 on -o.
func runHier(stdout io.Writer, pat *model.Pattern, clusters string, opt hier.Options, out string) error {
	spec, err := hier.ParseSpec(clusters)
	if err != nil {
		return err
	}
	opt.Spec = spec
	d, err := hier.Synthesize(pat, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pattern %s: %d processors, %d flows\n", pat.Name, pat.Procs, len(pat.Flows()))
	fmt.Fprintf(stdout, "two-level design: %d clusters, %d switches, %d links (gateway pipes included)\n",
		len(d.Assign.Clusters), d.TotalSwitches(), d.TotalLinks())
	fmt.Fprintf(stdout, "design constraints met at every level: %v\n", d.ConstraintsMet())
	fmt.Fprintf(stdout, "contention-free at every level (Theorem 1, C ∩ R = ∅): %v\n", d.ContentionFree())
	for i, lv := range d.Levels() {
		if i < len(d.Chiplets) {
			fmt.Fprintf(stdout, "  chiplet %d: procs %v, gateways %v", i, d.Assign.Clusters[i], d.Assign.Gateways[i])
		} else {
			fmt.Fprintf(stdout, "  noi: %d gateway endpoints", d.Assign.NoIProcs)
		}
		fmt.Fprintf(stdout, ", %d switches, %d links, constraints met %v, contention-free %v\n",
			lv.Net.NumSwitches(), lv.Net.TotalLinks(), lv.Result.ConstraintsMet, lv.Result.ContentionFree)
	}
	if out != "" {
		save := func(w io.Writer) error { return hier.SaveDesign(w, d) }
		if err := writeFile(out, save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "hier-design (all levels + clustering) written to %s\n", out)
	}
	return nil
}

// writeFile creates path and runs save on it; a failed Close is reported,
// since that is where a short write to a full disk can surface.
func writeFile(path string, save func(io.Writer) error) error {
	of, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(of); err != nil {
		of.Close()
		return err
	}
	return of.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netgen:", err)
	os.Exit(1)
}
