// Command netsim runs a trace-driven flit-level simulation of a
// communication trace on a chosen topology.
//
// Usage:
//
//	netsim -trace trace.txt -topo mesh|torus|ring|crossbar|generated [-net net.json] [-report run.json]
//
// mesh, torus, ring and crossbar are the harness's baselines
// (flitsim.RunBaseline), so the torus is Figure 8's folded one. For -topo
// generated, -net must point to a design saved by netgen; the synthesized
// source routes and link assignments are used as-is, with shortest-path
// fallback for any flow the design does not cover.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "input noctrace file (required)")
		topo      = flag.String("topo", "mesh", "mesh, torus, ring, crossbar, or generated")
		netPath   = flag.String("net", "", "topology JSON for -topo generated")
		vcs       = flag.Int("vcs", 3, "virtual channels per link")
		useFloor  = flag.Bool("floorplan", true, "derive per-link delays from a floorplan (generated topologies)")
		shared    cliutil.Flags
	)
	shared.RegisterReport(flag.CommandLine)
	flag.Parse()
	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	pat, err := trace.Decode(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	cfg := flitsim.Config{VCs: *vcs, Obs: shared.Observer()}

	var res flitsim.Result
	if *topo != "generated" {
		res, err = flitsim.RunBaseline(pat, *topo, cfg)
	} else {
		if *netPath == "" {
			fatal(fmt.Errorf("-net is required for -topo generated"))
		}
		nf, err2 := os.Open(*netPath)
		if err2 != nil {
			fatal(err2)
		}
		net, table, err2 := synth.LoadDesign(nf)
		nf.Close()
		if err2 != nil {
			fatal(err2)
		}
		if *useFloor {
			plan, err3 := floorplan.Place(net, floorplan.Options{Obs: shared.Observer()})
			if err3 != nil {
				fatal(err3)
			}
			cfg.LinkDelay = plan.LinkDelay
		}
		res, err = flitsim.RunGenerated(pat, net, table, cfg)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pattern:            %s (%d procs, %d messages)\n", pat.Name, pat.Procs, len(pat.Messages))
	fmt.Printf("topology:           %s\n", *topo)
	fmt.Printf("execution time:     %d cycles (%.1f us at %g MHz)\n",
		res.ExecCycles, res.ExecTimeNs()/1e3, flitsim.ClockMHz)
	fmt.Printf("mean comm time:     %.0f cycles/processor\n", res.CommCycles)
	fmt.Printf("message latency:    mean %.1f, max %d cycles\n", res.MeanLatency, res.MaxLatency)
	fmt.Printf("flit-hops:          %d\n", res.FlitHops)
	fmt.Printf("peak link util:     %.3f\n", res.PeakLinkUtil)
	fmt.Printf("energy estimate:    %.0f units\n", res.EnergyUnits)
	fmt.Printf("deadlock recoveries: %d (%d victims)\n", res.Kills, res.Victims)
	fmt.Printf("vc stalls:          %d\n", res.VCStalls)
	if err := shared.WriteReport("netsim", trace.Summarize(pat)); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netsim:", err)
	os.Exit(1)
}
