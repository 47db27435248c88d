// Multiapp: the paper's Section 4.2 sensitivity question — how well does a
// network generated for one application carry the others? A network is
// synthesized for each NAS benchmark at 16 nodes; every trace is then run on
// every network (missing flows fall back to shortest-path source routes),
// producing the full cross-application execution-time matrix.
//
// The paper's observation to look for: FFT runs almost unharmed on the CG
// network (similar row/column exchange structure) while BT degrades
// substantially.
//
// Run with: go run ./examples/multiapp
package main

import (
	"fmt"
	"log"

	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
)

func main() {
	const procs = 16
	benchmarks := []string{"BT", "CG", "FFT", "MG"}

	type design struct {
		pat  *model.Pattern
		res  *synth.Result
		plan *floorplan.Plan
	}
	designs := make(map[string]design)
	gen := nas.Config{Iterations: 2, ByteScale: 0.5}
	for _, name := range benchmarks {
		pat, err := nas.Generate(name, procs, gen)
		if err != nil {
			log.Fatal(err)
		}
		res, err := synth.Synthesize(pat, synth.Options{Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		plan, err := floorplan.Place(res.Net, floorplan.Options{})
		if err != nil {
			log.Fatal(err)
		}
		designs[name] = design{pat: pat, res: res, plan: plan}
		fmt.Printf("network for %-4s %2d switches %2d links (contention-free: %v)\n",
			name+":", res.Net.NumSwitches(), res.Net.TotalLinks(), res.ContentionFree)
	}
	fmt.Println()

	// Cross matrix: rows are traces, columns are networks; cells are
	// execution time normalized to the trace's own network.
	fmt.Printf("%-8s", "trace\\net")
	for _, net := range benchmarks {
		fmt.Printf(" %9s", net)
	}
	fmt.Println()
	for _, traceName := range benchmarks {
		pat := designs[traceName].pat
		own := int64(0)
		cells := make([]float64, len(benchmarks))
		for i, netName := range benchmarks {
			d := designs[netName]
			res, err := flitsim.RunGenerated(pat, d.res.Net, d.res.Table,
				flitsim.Config{LinkDelay: d.plan.LinkDelay})
			if err != nil {
				log.Fatal(err)
			}
			if netName == traceName {
				own = res.ExecCycles
			}
			cells[i] = float64(res.ExecCycles)
		}
		fmt.Printf("%-8s", traceName)
		for _, c := range cells {
			fmt.Printf(" %9.3f", c/float64(own))
		}
		fmt.Println()
	}
	fmt.Println("\ncells: execution time normalized to the trace's own generated network")
}
