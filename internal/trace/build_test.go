package trace_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/trace"
)

// specsOf recovers phase specs from a pattern: each phase's label, its
// messages' flows, the first message's size, its length and its compute
// gap. Rebuilding them need not give back the pattern; it gives the two
// builders the generators' shapes.
func specsOf(p *model.Pattern) []trace.PhaseSpec {
	specs := make([]trace.PhaseSpec, len(p.Phases))
	for i, ph := range p.Phases {
		s := trace.PhaseSpec{Label: ph.Label, Duration: ph.Finish - ph.Start, ComputeAfter: ph.ComputeAfter}
		for _, mi := range ph.Messages {
			s.Flows = append(s.Flows, p.Messages[mi].Flow())
		}
		if len(ph.Messages) > 0 {
			s.Bytes = p.Messages[ph.Messages[0]].Bytes
		}
		specs[i] = s
	}
	return specs
}

// buildCorpus is the builders' spec corpus: the specs of every generated
// codec-corpus pattern, and random specs with empty phases, flowless runs,
// self-flows, zero sizes and durations left to default.
func buildCorpus(t *testing.T) [][]trace.PhaseSpec {
	var corpus [][]trace.PhaseSpec
	for _, p := range codecCorpus(t) {
		corpus = append(corpus, specsOf(p))
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		specs := make([]trace.PhaseSpec, rng.Intn(12))
		for i := range specs {
			s := &specs[i]
			s.Label = fmt.Sprintf("p%d", i)
			for range rng.Intn(4) * rng.Intn(6) {
				s.Flows = append(s.Flows, model.F(rng.Intn(8), rng.Intn(8)))
			}
			s.Bytes = rng.Intn(3) * rng.Intn(300)
			if rng.Intn(2) == 0 {
				s.Duration = rng.Float64() * 10
			}
			s.ComputeAfter = float64(rng.Intn(3))
		}
		corpus = append(corpus, specs)
	}
	return append(corpus, nil, []trace.PhaseSpec{{Label: "empty"}})
}

// procsOf is one more than the largest node the specs name.
func procsOf(specs []trace.PhaseSpec) int {
	procs := 1
	for _, s := range specs {
		for _, f := range s.Flows {
			procs = max(procs, f.Src+1, f.Dst+1)
		}
	}
	return procs
}

// TestBuildPhasedMatchesAppend holds BuildPhased, whose lists are sized from
// the specs, to the builder that appended one message at a time: equal
// patterns, nil lists included.
func TestBuildPhasedMatchesAppend(t *testing.T) {
	for i, specs := range buildCorpus(t) {
		got := trace.BuildPhased("b", procsOf(specs), specs)
		want := trace.BuildPhasedAppend("b", procsOf(specs), specs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec list %d: BuildPhased differs from the append builder", i)
		}
	}
}

// TestPhaseListsCapped appends to each phase's message list of a built and
// of a skewed pattern in turn and checks every other phase's list is
// unchanged: the lists share one array, so each must be capped at its end.
func TestPhaseListsCapped(t *testing.T) {
	for i, specs := range buildCorpus(t) {
		built := trace.BuildPhased("b", procsOf(specs), specs)
		for _, p := range []*model.Pattern{built, trace.ApplySkew(built, 1, 1)} {
			want := make([][]int, len(p.Phases))
			for j, ph := range p.Phases {
				want[j] = slices.Clone(ph.Messages)
			}
			for j := range p.Phases {
				p.Phases[j].Messages = append(p.Phases[j].Messages, -1)
				for k, ph := range p.Phases {
					if k != j && !slices.Equal(ph.Messages, want[k]) {
						t.Fatalf("spec list %d: appending to phase %d's list changed phase %d's", i, j, k)
					}
				}
				p.Phases[j].Messages = p.Phases[j].Messages[:len(want[j])]
			}
		}
	}
}

// ring64Specs is the phase list of ring-allreduce/64, the largest hier
// ledger class: 252 steps of 64 messages.
func ring64Specs(tb testing.TB) []trace.PhaseSpec {
	p, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return specsOf(p)
}

func benchmarkBuildPhasedRing64(b *testing.B, build func(string, int, []trace.PhaseSpec) *model.Pattern) {
	specs := ring64Specs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtSink = build("ring-allreduce.64", 64, specs)
	}
}

// builtSink keeps the benchmarked builds live.
var builtSink *model.Pattern

// BenchmarkBuildPhasedRing64 and its Reference, the append builder, are the
// trace pair of the ingest gate (make bench-ingest).
func BenchmarkBuildPhasedRing64(b *testing.B) { benchmarkBuildPhasedRing64(b, trace.BuildPhased) }
func BenchmarkBuildPhasedRing64Reference(b *testing.B) {
	benchmarkBuildPhasedRing64(b, trace.BuildPhasedAppend)
}
