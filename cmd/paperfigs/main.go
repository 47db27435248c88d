// Command paperfigs regenerates every figure of the paper's evaluation
// (Section 4) plus the Section 3 walkthrough and the DESIGN.md ablations.
//
// Usage:
//
//	paperfigs [-fig all|1|7a|7b|8a|8b|sens|color|ablation|multi|scale|warm|skew|coll|chiplet] [-quick] [-workers 0] [-report run.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/harness"
)

// figures is every -fig value in the order -fig all prints them; each
// renders its tables to w.
var figures = []struct {
	name string
	run  func(w io.Writer, cfg harness.Config, quick bool) error
}{
	{"1", func(w io.Writer, cfg harness.Config, _ bool) error {
		walk, err := cfg.Walkthrough()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, walk.Render())
		return nil
	}},
	{"7a", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.Figure7("small")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderResourceTable("Figure 7(a): resources, 8/9-node configurations (normalized to mesh)", rows))
		return nil
	}},
	{"7b", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.Figure7("large")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderResourceTable("Figure 7(b): resources, 16-node configurations (normalized to mesh)", rows))
		return nil
	}},
	{"8a", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.Figure8("small")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderPerfTable("Figure 8(a): performance, 8/9-node configurations (normalized to crossbar)", rows))
		return nil
	}},
	{"8b", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.Figure8("large")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderPerfTable("Figure 8(b): performance, 16-node configurations (normalized to crossbar)", rows))
		return nil
	}},
	{"sens", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.Sensitivity([]string{"BT", "CG", "FFT", "MG"}, 16)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderSensitivityTable(rows))
		return nil
	}},
	{"color", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.ColoringQuality(nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderColoringQuality(rows))
		return nil
	}},
	{"ablation", func(w io.Writer, cfg harness.Config, _ bool) error {
		for _, bench := range []string{"CG", "BT"} {
			rows, err := cfg.Ablations(bench, 16)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, harness.RenderAblations(rows))
		}
		return nil
	}},
	{"multi", func(w io.Writer, cfg harness.Config, _ bool) error {
		res, err := cfg.MultiApp([]string{"CG", "FFT"}, 16)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		return nil
	}},
	{"scale", func(w io.Writer, cfg harness.Config, quick bool) error {
		sizes := []int{8, 16, 32, 64}
		if quick {
			sizes = []int{8, 16}
		}
		rows, err := cfg.Scaling("CG", sizes)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderScaling("CG", rows))
		return nil
	}},
	{"warm", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.WarmStart("CG", 16)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderWarmStart("CG", rows))
		return nil
	}},
	{"skew", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.SkewRobustness("CG", 16, []float64{0, 0.25, 0.5, 1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderSkewTable("CG", rows))
		return nil
	}},
	{"coll", func(w io.Writer, cfg harness.Config, _ bool) error {
		rows, err := cfg.Collectives(16)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.RenderPerfTable("Collectives: performance, 16-node schedules (normalized to crossbar)", rows))
		return nil
	}},
	{"chiplet", func(w io.Writer, cfg harness.Config, _ bool) error {
		for _, cell := range []struct {
			bench string
			procs int
		}{{"CG", 16}, {"ring-allreduce", 64}} {
			rows, err := cfg.Chiplet(cell.bench, cell.procs, 4)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, harness.RenderChipletTable(fmt.Sprintf("Chiplet: %s-%d at 4 clusters (normalized to the flat design)", cell.bench, cell.procs), rows))
		}
		return nil
	}},
}

func main() {
	names := []string{"all"}
	for _, f := range figures {
		names = append(names, f.name)
	}
	var (
		fig    = flag.String("fig", "all", "figure: "+strings.Join(names, ", "))
		quick  = flag.Bool("quick", false, "scaled-down workloads (faster)")
		shared cliutil.Flags
	)
	shared.RegisterWorkers(flag.CommandLine)
	shared.RegisterProfiles(flag.CommandLine)
	shared.RegisterReport(flag.CommandLine)
	flag.Parse()
	if !slices.Contains(names, *fig) {
		fmt.Fprintf(os.Stderr, "paperfigs: unknown -fig %q (valid: %s)\n", *fig, strings.Join(names, ", "))
		os.Exit(2)
	}
	stopProfiles, err := shared.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()
	cfg := harness.Paper()
	if *quick {
		cfg = harness.Quick()
	}
	cfg.Workers = shared.Workers
	cfg.Obs = shared.Observer()
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		if err := f.run(os.Stdout, cfg, *quick); err != nil {
			fatal(fmt.Errorf("%s: %v", f.name, err))
		}
	}
	if err := shared.WriteReport("paperfigs", nil); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
