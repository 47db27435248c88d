package repro

import (
	"fmt"

	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Example_quickstart describes a small well-behaved communication pattern,
// synthesizes a minimal network for it, verifies the contention-free
// condition (Theorem 1), and compares simulated performance against a mesh.
func Example_quickstart() {
	// An 8-processor application with synchronized communication phases
	// (the phase-parallel model): a neighbor exchange, a butterfly step,
	// distance-2 row shifts and a small gather.
	pattern := trace.BuildPhased("quickstart", 8, []trace.PhaseSpec{
		{
			Label: "exchange",
			Flows: []model.Flow{
				model.F(0, 1), model.F(1, 0), model.F(2, 3), model.F(3, 2),
				model.F(4, 5), model.F(5, 4), model.F(6, 7), model.F(7, 6),
			},
			Bytes:        4096,
			ComputeAfter: 32,
		},
		{
			Label: "butterfly",
			Flows: []model.Flow{
				model.F(0, 4), model.F(4, 0), model.F(1, 5), model.F(5, 1),
				model.F(2, 6), model.F(6, 2), model.F(3, 7), model.F(7, 3),
			},
			Bytes:        4096,
			ComputeAfter: 32,
		},
		{
			// On a 2x4 mesh under DOR these flows share links (0->2 and
			// 1->3 both cross the 1-2 hop), so the mesh serializes what
			// the generated network keeps conflict-free.
			Label:        "shift2",
			Flows:        []model.Flow{model.F(0, 2), model.F(1, 3), model.F(4, 6), model.F(5, 7)},
			Bytes:        8192,
			ComputeAfter: 16,
		},
		{
			Label: "shift2.rev",
			Flows: []model.Flow{model.F(2, 0), model.F(3, 1), model.F(6, 4), model.F(7, 5)},
			Bytes: 8192,
		},
		{
			Label: "gather",
			Flows: []model.Flow{model.F(1, 0), model.F(3, 2), model.F(5, 4), model.F(7, 6)},
			Bytes: 512,
		},
	})

	// Synthesize under the paper's design constraint: at most five ports
	// per switch.
	result, err := synth.Synthesize(pattern, synth.Options{Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Printf("generated network: %d switches, %d links, max degree %d\n",
		result.Net.NumSwitches(), result.Net.TotalLinks(), result.Net.MaxDegree())
	fmt.Printf("contention-free by Theorem 1: %v\n\n", result.ContentionFree)

	gen, err := flitsim.RunGenerated(pattern, result.Net, result.Table, flitsim.Config{})
	if err != nil {
		panic(err)
	}
	mesh, err := flitsim.RunMesh(pattern, flitsim.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-10s %12s %14s %12s\n", "network", "exec cycles", "comm cycles/p", "mean latency")
	fmt.Printf("%-10s %12d %14.0f %12.1f\n", "generated", gen.ExecCycles, gen.CommCycles, gen.MeanLatency)
	fmt.Printf("%-10s %12d %14.0f %12.1f\n", "mesh", mesh.ExecCycles, mesh.CommCycles, mesh.MeanLatency)
	fmt.Printf("\nspeedup over mesh: %.2fx with %d links instead of 10\n", // a 2x4 mesh has 10 links
		float64(mesh.ExecCycles)/float64(gen.ExecCycles), result.Net.TotalLinks())
	// Output:
	// generated network: 4 switches, 4 links, max degree 4
	// contention-free by Theorem 1: true
	//
	// network     exec cycles  comm cycles/p mean latency
	// generated          7669           5796       1337.5
	// mesh              11764           9377       2067.9
	//
	// speedup over mesh: 1.53x with 4 links instead of 10
}

// Example_codesign is the paper's introductory use case: an
// application-specific SoC whose cores run a fixed streaming pipeline. The
// methodology synthesizes a custom network, the floorplanner lays it out on
// RAW-style tiles, and the result is compared against a mesh and the ideal
// crossbar on area and performance.
func Example_codesign() {
	// A 12-core video encoder over three frames: cores 0-3 capture, 4-7
	// transform, 8-9 quantize, 10 entropy-codes and 11 does rate control.
	// Every phase is a partial permutation (one send and one receive per
	// core per synchronized call), so a contention-free mapping exists.
	const cores = 12
	var phases []trace.PhaseSpec
	for frame := 0; frame < 3; frame++ {
		phases = append(phases,
			trace.PhaseSpec{Label: "cap2dct", Flows: []model.Flow{model.F(0, 4), model.F(1, 5), model.F(2, 6), model.F(3, 7)}, Bytes: 8192, ComputeAfter: 64},
			trace.PhaseSpec{Label: "dct2q.a", Flows: []model.Flow{model.F(4, 8), model.F(5, 9)}, Bytes: 4096, ComputeAfter: 16},
			trace.PhaseSpec{Label: "dct2q.b", Flows: []model.Flow{model.F(6, 8), model.F(7, 9)}, Bytes: 4096, ComputeAfter: 32},
			trace.PhaseSpec{Label: "q2ec.a", Flows: []model.Flow{model.F(8, 10)}, Bytes: 2048, ComputeAfter: 8},
			trace.PhaseSpec{Label: "q2ec.b", Flows: []model.Flow{model.F(9, 10)}, Bytes: 2048, ComputeAfter: 16},
			trace.PhaseSpec{Label: "ec2rc", Flows: []model.Flow{model.F(10, 11)}, Bytes: 256},
			// Rate-control feedback to one capture core per frame.
			trace.PhaseSpec{Label: "rc2cap", Flows: []model.Flow{model.F(11, frame%4)}, Bytes: 64},
		)
	}
	pipeline := trace.BuildPhased("video-encoder", cores, phases)

	result, err := synth.Synthesize(pipeline, synth.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	plan, err := floorplan.Place(result.Net, floorplan.Options{})
	if err != nil {
		panic(err)
	}
	meshSw, meshLink := floorplan.MeshBaseline(cores)
	fmt.Println("application-specific NoC for a 12-core video pipeline")
	fmt.Printf("  switches: %d (mesh: %d), links: %d, max degree: %d\n",
		result.Net.NumSwitches(), meshSw, result.Net.TotalLinks(), result.Net.MaxDegree())
	fmt.Printf("  contention-free (Theorem 1): %v, constraints met: %v\n",
		result.ContentionFree, result.ConstraintsMet)
	fmt.Printf("  floorplan area: switches %d vs mesh %d, links %d vs mesh %d\n\n",
		plan.SwitchArea, meshSw, plan.TotalArea(), meshLink)

	gen, err := flitsim.RunGenerated(pipeline, result.Net, result.Table, flitsim.Config{LinkDelay: plan.LinkDelay})
	if err != nil {
		panic(err)
	}
	mesh, err := flitsim.RunMesh(pipeline, flitsim.Config{})
	if err != nil {
		panic(err)
	}
	xbar, err := flitsim.RunCrossbar(pipeline, flitsim.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-10s %12s %14s %8s\n", "network", "exec cycles", "vs crossbar", "kills")
	for _, row := range []struct {
		name string
		res  flitsim.Result
	}{{"crossbar", xbar}, {"mesh", mesh}, {"generated", gen}} {
		fmt.Printf("%-10s %12d %14.3f %8d\n", row.name, row.res.ExecCycles,
			float64(row.res.ExecCycles)/float64(xbar.ExecCycles), row.res.Kills)
	}
	// Output:
	// application-specific NoC for a 12-core video pipeline
	//   switches: 4 (mesh: 12), links: 3, max degree: 5
	//   contention-free (Theorem 1): true, constraints met: true
	//   floorplan area: switches 4 vs mesh 12, links 4 vs mesh 17
	//
	// network     exec cycles    vs crossbar    kills
	// crossbar          19056          1.000        0
	// mesh              19068          1.001        0
	// generated         19050          1.000        0
}

// Example_synthesize designs a network for the paper's Figure 1 CG-16
// pattern and verifies the contention-free condition of Theorem 1.
func Example_synthesize() {
	pattern := nas.Figure1Pattern()
	result, err := synth.Synthesize(pattern, synth.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("constraints met:", result.ConstraintsMet)
	fmt.Println("contention-free:", result.ContentionFree)
	fmt.Println("max degree:", result.Net.MaxDegree())
	// Output:
	// constraints met: true
	// contention-free: true
	// max degree: 5
}

// Example_contentionModel extracts the paper's Section 2 model from a small
// timed pattern: contention periods, the maximum clique set, and |C|.
func Example_contentionModel() {
	p := trace.BuildPhased("demo", 4, []trace.PhaseSpec{
		{Label: "a", Flows: []model.Flow{model.F(0, 1), model.F(2, 3)}, Bytes: 64},
		{Label: "b", Flows: []model.Flow{model.F(1, 0)}, Bytes: 64},
	})
	periods := model.ContentionPeriods(p)
	maxed := model.MaxCliques(periods)
	c := model.ConflictMatrixFromCliques(model.NewFlowIndex(p.Flows()), maxed)
	fmt.Println("periods:", len(periods))
	fmt.Println("maximal cliques:", len(maxed))
	fmt.Println("|C|:", c.Len())
	// Output:
	// periods: 2
	// maximal cliques: 2
	// |C|: 1
}

// Example_theorem1 shows the sufficient condition directly: two flows that
// overlap in time and share a link violate C ∩ R = ∅.
func Example_theorem1() {
	ix := model.NewFlowIndex([]model.Flow{model.F(0, 2), model.F(1, 2)})
	c := model.NewConflictMatrix(ix)
	c.Add(0, 1)
	r := model.NewConflictMatrix(ix)
	r.Add(0, 1)
	free, witnesses := model.ContentionFreeBits(c, r)
	fmt.Println("contention-free:", free)
	fmt.Println("witnesses:", len(witnesses))
	// Output:
	// contention-free: false
	// witnesses: 1
}
