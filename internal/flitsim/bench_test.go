package flitsim

import (
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/topology"
	"repro/internal/trace"
)

func benchWorkload() *model.Pattern {
	var phases []trace.PhaseSpec
	for k := 1; k < 8; k++ {
		var fs []model.Flow
		for p := 0; p < 16; p++ {
			fs = append(fs, model.F(p, (p+k)%16))
		}
		phases = append(phases, trace.PhaseSpec{Flows: fs, Bytes: 1024, ComputeAfter: 8})
	}
	return trace.BuildPhased("bench", 16, phases)
}

func BenchmarkMeshSimulation(b *testing.B) {
	pat := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunMesh(pat, Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ExecCycles), "simcycles")
	}
}

func BenchmarkTorusSimulation(b *testing.B) {
	pat := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTorus(pat, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossbarSimulation(b *testing.B) {
	pat := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCrossbar(pat, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// gapHeavyCG is the compute-gap-heavy trace behind the engine speedup gate:
// a 16-node NAS CG with scaled-up compute phases, the regime where the
// reference engine spins millions of idle cycles the event-driven core
// fast-forwards across. `make bench-flitsim` holds the ratio of the two
// BenchmarkSimulateCG16Gap* results at >= 10x.
func gapHeavyCG(b *testing.B) *model.Pattern {
	pat, err := nas.Generate("CG", 16, nas.Config{Iterations: 2, ComputeScale: 16})
	if err != nil {
		b.Fatal(err)
	}
	return pat
}

func BenchmarkSimulateCG16GapMesh(b *testing.B) {
	pat := gapHeavyCG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMesh(pat, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateCG16GapMeshReference(b *testing.B) {
	pat := gapHeavyCG(b)
	rows, cols := topology.GridDims(pat.Procs)
	net, grid := topology.Mesh(rows, cols)
	rt := meshRouter(b, net, grid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runReference(pat, net, rt, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// streamingBT is the streaming trace behind the engine's second speedup
// gate: full-size NAS BT on 16 nodes, whose multi-KB messages spend almost
// every cycle of a crossbar replay streaming one body flit per hop — the
// regime the event-driven core leaps and the reference steps.
func streamingBT(b *testing.B) *model.Pattern {
	pat, err := nas.Generate("BT", 16, nas.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return pat
}

func BenchmarkSimulateBT16StreamCrossbar(b *testing.B) {
	pat := streamingBT(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCrossbar(pat, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateBT16StreamCrossbarReference(b *testing.B) {
	pat := streamingBT(b)
	net := topology.Crossbar(pat.Procs)
	rt := crossbarRouter(b, net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runReference(pat, net, rt, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// arbitratingCG is the trace behind the engine's third speedup gate:
// full-size NAS CG on 16 nodes, whose mesh replay spends almost all of its
// stepped cycles with worms taking turns on shared links — periodic states
// of period 2, 3 and 6 that the event-driven core leaps whole periods at a
// time.
func arbitratingCG(b *testing.B) *model.Pattern {
	pat, err := nas.Generate("CG", 16, nas.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return pat
}

func BenchmarkSimulateCG16Mesh(b *testing.B) {
	pat := arbitratingCG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMesh(pat, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateCG16MeshReference(b *testing.B) {
	pat := arbitratingCG(b)
	rows, cols := topology.GridDims(pat.Procs)
	net, grid := topology.Mesh(rows, cols)
	rt := meshRouter(b, net, grid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runReference(pat, net, rt, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
