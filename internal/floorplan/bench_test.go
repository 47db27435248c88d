package floorplan

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/topology"
)

// synthesized returns the network synthesis generates for the pattern.
func synthesized(tb testing.TB, pat *model.Pattern, err error, opt synth.Options) *topology.Network {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := synth.Synthesize(pat, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Net
}

func figure1Net(tb testing.TB) *topology.Network {
	return synthesized(tb, nas.Figure1Pattern(), nil, synth.Options{Seed: 1, Restarts: 1})
}

var sinkPlan *Plan

func benchmarkPlace(b *testing.B, net *topology.Network) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := Place(net, Options{})
		if err != nil {
			b.Fatal(err)
		}
		sinkPlan = plan
	}
}

func BenchmarkPlaceCG16(b *testing.B) { benchmarkPlace(b, figure1Net(b)) }

func BenchmarkPlaceFFT16(b *testing.B) {
	pat, err := nas.Generate("FFT", 16, nas.Config{})
	benchmarkPlace(b, synthesized(b, pat, err, synth.Options{Seed: 1, Restarts: 1}))
}

// BenchmarkPlaceRing64 is the imperfect-matching case at scale: the plan
// keeps ProcLinkArea 2, so candidates go through the exact fallback.
func BenchmarkPlaceRing64(b *testing.B) {
	pat, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	benchmarkPlace(b, synthesized(b, pat, err, synth.Options{Seed: 1, Restarts: 1}))
}

// BenchmarkPlaceClustered256 is TestPlaceScale's largest network: 256
// processors on 101 switches, imperfect from the seed placement onwards.
func BenchmarkPlaceClustered256(b *testing.B) { benchmarkPlace(b, clusteredNetwork(256, 256, 2, 4)) }

// BenchmarkPlaceCG16Reference runs the retired map-based search (one search,
// as Place now runs) on BenchmarkPlaceCG16's network; make bench-floorplan
// gates the ratio of the two.
func BenchmarkPlaceCG16Reference(b *testing.B) {
	net := figure1Net(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, _, err := refPlace(net)
		if err != nil {
			b.Fatal(err)
		}
		sinkPlan = plan
	}
}
