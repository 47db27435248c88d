package hier

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
)

// BenchmarkHierSynthesize is one two-level synthesis of each hier class the
// bench/ cold_synth workload requests, under the design server's budgets
// (degree 5, four processors per switch, four restarts) on both levels,
// serial. The NoI level never meets its degree budget on these three, so it
// runs every extension restart and dominates the time.
func BenchmarkHierSynthesize(b *testing.B) {
	gen := func(bench string, procs int) (*model.Pattern, error) {
		if bench == "ring-allreduce" {
			return collective.Generate(bench, procs, collective.Config{})
		}
		return nas.Generate(bench, procs, nas.Config{})
	}
	for _, c := range []struct {
		name, bench string
		procs       int
		clusters    string
	}{
		{"cg16", "CG", 16, "4"},
		{"fft16", "FFT", 16, "4"},
		{"ring64", "ring-allreduce", 64, "8"},
	} {
		b.Run(c.name, func(b *testing.B) {
			pat, err := gen(c.bench, c.procs)
			if err != nil {
				b.Fatal(err)
			}
			spec, err := ParseSpec(c.clusters)
			if err != nil {
				b.Fatal(err)
			}
			lvl := synth.Options{Seed: 1, Restarts: 4, Workers: 1,
				Constraints: synth.Constraints{MaxDegree: 5, MaxProcsPerSwitch: 4}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(pat, Options{Spec: spec, NoC: lvl, NoI: lvl}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
