// Codesign: the paper's introductory use case — an application-specific SoC
// whose cores run a fixed streaming pipeline with fully characterizable
// communication. The methodology synthesizes a custom on-chip network, the
// floorplanner lays it out on RAW-style tiles, and the result is compared
// against a mesh and the ideal crossbar on both area and performance.
//
// The workload models a 12-core video encoder: capture cores feed transform
// cores, transform feeds quantization, quantization feeds entropy coding,
// with a periodic rate-control broadcast back to the front of the pipe.
//
// Run with: go run ./examples/codesign
package main

import (
	"fmt"
	"log"

	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	const cores = 12
	// Stage assignment: 0-3 capture, 4-7 transform, 8-9 quantization,
	// 10 entropy coding, 11 rate control. Every phase is a partial
	// permutation (one send, one receive per core per synchronized
	// call), so a contention-free mapping exists.
	var phases []trace.PhaseSpec
	for frame := 0; frame < 3; frame++ {
		phases = append(phases,
			trace.PhaseSpec{ // capture -> transform
				Label: "cap2dct",
				Flows: []model.Flow{
					model.F(0, 4), model.F(1, 5), model.F(2, 6), model.F(3, 7),
				},
				Bytes:        8192,
				ComputeAfter: 64,
			},
			trace.PhaseSpec{ // transform -> quantization, first half
				Label:        "dct2q.a",
				Flows:        []model.Flow{model.F(4, 8), model.F(5, 9)},
				Bytes:        4096,
				ComputeAfter: 16,
			},
			trace.PhaseSpec{ // transform -> quantization, second half
				Label:        "dct2q.b",
				Flows:        []model.Flow{model.F(6, 8), model.F(7, 9)},
				Bytes:        4096,
				ComputeAfter: 32,
			},
			trace.PhaseSpec{ // quantization -> entropy coding
				Label:        "q2ec.a",
				Flows:        []model.Flow{model.F(8, 10)},
				Bytes:        2048,
				ComputeAfter: 8,
			},
			trace.PhaseSpec{
				Label:        "q2ec.b",
				Flows:        []model.Flow{model.F(9, 10)},
				Bytes:        2048,
				ComputeAfter: 16,
			},
			trace.PhaseSpec{ // entropy stats -> rate control
				Label: "ec2rc",
				Flows: []model.Flow{model.F(10, 11)},
				Bytes: 256,
			},
			trace.PhaseSpec{ // rate control feedback to one capture core
				Label: "rc2cap",
				Flows: []model.Flow{model.F(11, frame%4)},
				Bytes: 64,
			},
		)
	}
	pipeline := trace.BuildPhased("video-encoder", cores, phases)

	result, err := synth.Synthesize(pipeline, synth.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := floorplan.Place(result.Net, floorplan.Options{})
	if err != nil {
		log.Fatal(err)
	}
	meshSw, meshLink := floorplan.MeshBaseline(cores)

	fmt.Println("application-specific NoC for a 12-core video pipeline")
	fmt.Printf("  switches: %d (mesh: %d), links: %d, max degree: %d\n",
		result.Net.NumSwitches(), meshSw, result.Net.TotalLinks(), result.Net.MaxDegree())
	fmt.Printf("  contention-free (Theorem 1): %v, constraints met: %v\n",
		result.ContentionFree, result.ConstraintsMet)
	fmt.Printf("  floorplan area: switches %d vs mesh %d, links %d vs mesh %d\n\n",
		plan.SwitchArea, meshSw, plan.TotalArea(), meshLink)

	cfg := flitsim.Config{}
	gen, err := flitsim.RunGenerated(pipeline, result.Net, result.Table, flitsim.Config{LinkDelay: plan.LinkDelay})
	if err != nil {
		log.Fatal(err)
	}
	mesh, err := flitsim.RunMesh(pipeline, cfg)
	if err != nil {
		log.Fatal(err)
	}
	xbar, err := flitsim.RunCrossbar(pipeline, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %12s %14s %8s\n", "network", "exec cycles", "vs crossbar", "kills")
	for _, row := range []struct {
		name string
		res  flitsim.Result
	}{{"crossbar", xbar}, {"mesh", mesh}, {"generated", gen}} {
		fmt.Printf("%-10s %12d %14.3f %8d\n",
			row.name, row.res.ExecCycles,
			float64(row.res.ExecCycles)/float64(xbar.ExecCycles), row.res.Kills)
	}
}
