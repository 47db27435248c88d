package trace

import "repro/internal/model"

// BuildPhasedAppend exposes the builder oracle to the package's external
// tests.
var BuildPhasedAppend = buildPhasedAppend

// buildPhasedAppend is BuildPhased as it was before its lists were sized
// from the specs: the messages and the phases appended one at a time, each
// phase's index list grown on its own. It is the oracle of
// TestBuildPhasedMatchesAppend and the reference side of the ingest gate.
func buildPhasedAppend(name string, procs int, phases []PhaseSpec) *model.Pattern {
	p := &model.Pattern{Name: name, Procs: procs}
	t := 0.0
	for _, spec := range phases {
		dur := spec.nominalDuration()
		ph := model.Phase{Label: spec.Label, Start: t, Finish: t + dur, ComputeAfter: spec.ComputeAfter}
		for _, f := range spec.Flows {
			ph.Messages = append(ph.Messages, len(p.Messages))
			p.Messages = append(p.Messages, model.Message{
				ID:     len(p.Messages),
				Src:    f.Src,
				Dst:    f.Dst,
				Start:  t,
				Finish: t + dur,
				Bytes:  spec.Bytes,
			})
		}
		p.Phases = append(p.Phases, ph)
		t += dur + spec.ComputeAfter + phaseEpsilon
	}
	return p
}
