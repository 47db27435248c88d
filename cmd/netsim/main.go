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
// fallback for any flow the design does not cover. A two-level design
// (netgen -clusters) is recognized by its schema and replayed through
// hier.Simulate under its own chiplet and NoI link delays; -floorplan
// applies to single-level designs only.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/flitsim"
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

// run is netsim on the command-line arguments args, printing its report to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netsim", flag.ExitOnError)
	var (
		tracePath = fs.String("trace", "", "input noctrace file (required)")
		topo      = fs.String("topo", "mesh", "mesh, torus, ring, crossbar, or generated")
		netPath   = fs.String("net", "", "topology JSON for -topo generated")
		vcs       = fs.Int("vcs", flitsim.Config{}.Normalized().VCs, "virtual channels per link")
		useFloor  = fs.Bool("floorplan", true, "derive per-link delays from a floorplan (generated topologies)")
		shared    cliutil.Flags
	)
	shared.RegisterReport(fs)
	fs.Parse(args)
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
	cfg := flitsim.Config{VCs: *vcs, Obs: shared.Observer()}

	var res flitsim.Result
	switch {
	case *topo != "generated":
		res, err = flitsim.RunBaseline(pat, *topo, cfg)
	case *netPath == "":
		err = fmt.Errorf("-net is required for -topo generated")
	default:
		var raw []byte
		if raw, err = os.ReadFile(*netPath); err == nil {
			res, err = replayDesign(pat, raw, cfg, *useFloor)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pattern:            %s (%d procs, %d messages)\n", pat.Name, pat.Procs, len(pat.Messages))
	fmt.Fprintf(stdout, "topology:           %s\n", *topo)
	fmt.Fprintf(stdout, "execution time:     %d cycles (%.1f us at %g MHz)\n",
		res.ExecCycles, res.ExecTimeNs()/1e3, flitsim.ClockMHz)
	fmt.Fprintf(stdout, "mean comm time:     %.0f cycles/processor\n", res.CommCycles)
	fmt.Fprintf(stdout, "message latency:    mean %.1f, max %d cycles\n", res.MeanLatency, res.MaxLatency)
	fmt.Fprintf(stdout, "flit-hops:          %d\n", res.FlitHops)
	fmt.Fprintf(stdout, "peak link util:     %.3f\n", res.PeakLinkUtil)
	fmt.Fprintf(stdout, "energy estimate:    %.0f units\n", res.EnergyUnits)
	fmt.Fprintf(stdout, "deadlock recoveries: %d (%d victims)\n", res.Kills, res.Victims)
	fmt.Fprintf(stdout, "vc stalls:          %d\n", res.VCStalls)
	return shared.WriteReport("netsim", func() any { return trace.Summarize(pat) })
}

// replayDesign replays pat on a saved design: a hier-design document through
// hier.Simulate, anything else as a single-level synth design, under its
// floorplanned link delays when useFloor is set.
func replayDesign(pat *model.Pattern, raw []byte, cfg flitsim.Config, useFloor bool) (flitsim.Result, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if json.Unmarshal(raw, &head) == nil && head.Schema == hier.DesignSchema {
		d, err := hier.LoadDesign(bytes.NewReader(raw))
		if err != nil {
			return flitsim.Result{}, err
		}
		res, _, err := hier.Simulate(d, pat, cfg)
		return res, err
	}
	net, table, err := synth.LoadDesign(bytes.NewReader(raw))
	if err != nil {
		return flitsim.Result{}, err
	}
	if useFloor {
		plan, err := floorplan.Place(net, floorplan.Options{Obs: cfg.Obs})
		if err != nil {
			return flitsim.Result{}, err
		}
		cfg.LinkDelay = plan.LinkDelay
	}
	return flitsim.RunGenerated(pat, net, table, cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netsim:", err)
	os.Exit(1)
}
