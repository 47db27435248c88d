// Package trace provides construction and serialization of communication
// patterns. The paper extracts patterns from MPE/MPICH execution traces; this
// package supplies the equivalent substrate: a phase-parallel pattern builder
// (Section 3's "each communication library call represents one contention
// period" abstraction), a time-skew model for studying the paper's
// skew-robustness tradeoff, and a line-oriented text format for tool
// interchange.
package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// PhaseSpec describes one synchronized communication library call: a set of
// flows that all start together and a nominal duration derived from the
// message size.
type PhaseSpec struct {
	// Label names the library call (e.g. "allreduce", "transpose").
	Label string
	// Flows lists the concurrent point-to-point communications.
	Flows []model.Flow
	// Bytes is the payload size per message. Zero-byte messages are
	// permitted (pure synchronization).
	Bytes int
	// Duration is the phase length in trace time units. If zero, a
	// duration proportional to Bytes is used (1 unit per 64 bytes,
	// minimum 1).
	Duration float64
	// ComputeAfter is the compute gap following the phase, in trace time
	// units.
	ComputeAfter float64
}

// nominalDuration returns the phase duration used when none is specified.
func (s PhaseSpec) nominalDuration() float64 {
	if s.Duration > 0 {
		return s.Duration
	}
	d := float64(s.Bytes) / 64
	if d < 1 {
		d = 1
	}
	return d
}

// BuildPhased lays the phases end to end on the trace timeline: phase i
// starts when phase i-1 (plus its compute gap) ends. All messages of a phase
// share the phase's start and finish times, so each phase is exactly one
// contention period in the ideal, skew-free case the methodology assumes.
//
// The message and phase lists are sized from the specs up front, and every
// phase's Messages is a capped slice of one index array, so an append to one
// phase's list reallocates it instead of writing into the next phase's.
func BuildPhased(name string, procs int, phases []PhaseSpec) *model.Pattern {
	p := &model.Pattern{Name: name, Procs: procs}
	n := 0
	for _, spec := range phases {
		n += len(spec.Flows)
	}
	var ids []int
	if n > 0 { // a pattern without messages keeps nil lists
		p.Messages = make([]model.Message, 0, n)
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	if len(phases) > 0 {
		p.Phases = make([]model.Phase, 0, len(phases))
	}
	t := 0.0
	for _, spec := range phases {
		dur := spec.nominalDuration()
		ph := model.Phase{Label: spec.Label, Start: t, Finish: t + dur, ComputeAfter: spec.ComputeAfter}
		lo := len(p.Messages)
		for _, f := range spec.Flows {
			p.Messages = append(p.Messages, model.Message{
				ID:     len(p.Messages),
				Src:    f.Src,
				Dst:    f.Dst,
				Start:  t,
				Finish: t + dur,
				Bytes:  spec.Bytes,
			})
		}
		if hi := len(p.Messages); hi > lo { // a phase without flows keeps a nil list
			ph.Messages = ids[lo:hi:hi]
		}
		p.Phases = append(p.Phases, ph)
		// Separate consecutive phases by a small epsilon beyond the
		// compute gap so that back-to-back phases with zero gap do not
		// share an instant (touching intervals overlap per Def. 3).
		t += dur + spec.ComputeAfter + phaseEpsilon
	}
	return p
}

// phaseEpsilon separates consecutive phases on the ideal timeline. Inclusive
// interval endpoints mean phases that abut exactly would count as overlapping.
const phaseEpsilon = 1e-6

// ApplySkew returns a copy of the pattern with each processor's events
// shifted by a fixed per-processor offset drawn uniformly from [0, maxSkew],
// modeling the execution-time skew between processes discussed in Sections 3
// and 4. A message inherits the skew of its source. Deterministic for a
// given seed.
func ApplySkew(p *model.Pattern, maxSkew float64, seed int64) *model.Pattern {
	rng := rand.New(rand.NewSource(seed))
	offset := make([]float64, p.Procs)
	for i := range offset {
		offset[i] = rng.Float64() * maxSkew
	}
	out := &model.Pattern{Name: p.Name, Procs: p.Procs, Phases: clonePhases(p.Phases)}
	out.Messages = make([]model.Message, len(p.Messages))
	for i, m := range p.Messages {
		m.Start += offset[m.Src]
		m.Finish += offset[m.Src]
		out.Messages[i] = m
	}
	return out
}

// clonePhases copies ps, each phase's Messages a capped slice of one array
// (an empty list comes out nil).
func clonePhases(ps []model.Phase) []model.Phase {
	n := 0
	for _, ph := range ps {
		n += len(ph.Messages)
	}
	all := make([]int, 0, n)
	out := make([]model.Phase, len(ps))
	for i, ph := range ps {
		out[i] = ph
		if len(ph.Messages) > 0 {
			lo := len(all)
			all = append(all, ph.Messages...)
			out[i].Messages = all[lo:len(all):len(all)]
		}
	}
	return out
}

// Stats summarizes a pattern for reporting. It serializes under the
// "pattern" key of the RunReport artifact (see internal/obs), so the JSON
// tags are part of the report schema and stable.
type Stats struct {
	Procs        int     `json:"procs"`
	Messages     int     `json:"messages"`
	Flows        int     `json:"flows"`
	Phases       int     `json:"phases"`
	Periods      int     `json:"periods"`
	MaxPeriods   int     `json:"max_periods"`
	LargestCliq  int     `json:"largest_clique"`
	TotalBytes   int     `json:"total_bytes"`
	Span         float64 `json:"span"`
	ContentionSz int     `json:"contention_size"`
}

// Summarize computes pattern statistics, including the contention-model view
// (periods, maximum cliques, |C|).
func Summarize(p *model.Pattern) Stats {
	periods := model.ContentionPeriods(p)
	return SummarizeCliques(p, periods, model.MaxCliques(periods))
}

// SummarizeCliques is Summarize for a caller that already holds the
// pattern's contention periods and their maximum clique set.
func SummarizeCliques(p *model.Pattern, periods, maxed []model.Clique) Stats {
	largest := 0
	for _, c := range maxed {
		if len(c) > largest {
			largest = len(c)
		}
	}
	start, finish := p.Span()
	ix := model.NewFlowIndex(model.CliqueFlows(maxed))
	return Stats{
		Procs:        p.Procs,
		Messages:     len(p.Messages),
		Flows:        len(p.Flows()),
		Phases:       len(p.Phases),
		Periods:      len(periods),
		MaxPeriods:   len(maxed),
		LargestCliq:  largest,
		TotalBytes:   p.TotalBytes(),
		Span:         finish - start,
		ContentionSz: model.ConflictMatrixFromCliques(ix, maxed).Len(),
	}
}

// Concat composes several applications that run on the same system at
// different times (the reconfigurable-workload setting of Section 1): their
// phases are laid end to end on the trace timeline, so the contention
// periods of the result are exactly the union of the inputs' periods and a
// network synthesized for the concatenation is contention-free for every
// constituent application. All patterns must agree on the processor count.
func Concat(name string, pats ...*model.Pattern) (*model.Pattern, error) {
	if len(pats) == 0 {
		return nil, fmt.Errorf("trace: Concat needs at least one pattern")
	}
	procs := pats[0].Procs
	out := &model.Pattern{Name: name, Procs: procs}
	t := 0.0
	for _, p := range pats {
		if p.Procs != procs {
			return nil, fmt.Errorf("trace: Concat mixes %d and %d processors", procs, p.Procs)
		}
		start, finish := p.Span()
		base := len(out.Messages)
		for _, m := range p.Messages {
			m.ID = len(out.Messages)
			m.Start += t - start
			m.Finish += t - start
			out.Messages = append(out.Messages, m)
		}
		for _, ph := range p.Phases {
			nph := model.Phase{
				Label:        ph.Label,
				Start:        ph.Start + t - start,
				Finish:       ph.Finish + t - start,
				ComputeAfter: ph.ComputeAfter,
			}
			for _, mi := range ph.Messages {
				nph.Messages = append(nph.Messages, mi+base)
			}
			out.Phases = append(out.Phases, nph)
		}
		t += (finish - start) + 1 + phaseEpsilon
	}
	return out, out.Validate()
}
