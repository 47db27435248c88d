package harness

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/routing"
	"repro/internal/topology"
)

// channel identifies one physical link of one pipe direction, rebuilt here
// from the raw route data so the check shares no code with the
// synthesizer's or routing package's own conflict bookkeeping.
type channel struct {
	from, to topology.SwitchID
	link     int
}

// verifyTheorem1 recomputes Theorem 1 from first principles on one design:
// C from brute-force pairwise message overlap and R from the final routing
// function's per-hop link assignments. Every design the synthesizer reports
// contention-free must satisfy C ∩ R = ∅ under this independent
// recomputation.
func verifyTheorem1(t *testing.T, label string, d *Design) {
	t.Helper()
	if !d.Result.ContentionFree {
		t.Errorf("%s: design not reported contention-free", label)
		return
	}
	verifyTheorem1Routes(t, label, d.Pattern, d.Result.Table.Routes)
}

// verifyTheorem1Routes is the level-generic core of the Theorem 1 check: it
// works from a pattern and raw routes alone, so it applies equally to a flat
// design, a single chiplet's NoC, or the NoI of a two-level composite.
func verifyTheorem1Routes(t *testing.T, label string, pat *model.Pattern, routes map[model.Flow]routing.Route) {
	t.Helper()

	// C: flow pairs with any temporally overlapping messages.
	byFlow := make(map[model.Flow][]model.Message)
	for _, m := range pat.Messages {
		byFlow[m.Flow()] = append(byFlow[m.Flow()], m)
	}
	overlaps := func(f, g model.Flow) bool {
		for _, a := range byFlow[f] {
			for _, b := range byFlow[g] {
				if model.Overlaps(a, b) {
					return true
				}
			}
		}
		return false
	}

	// R: flow pairs sharing a physical channel, straight from the
	// routing table's switches and link indices.
	chansOf := make(map[model.Flow]map[channel]bool)
	var flows []model.Flow
	for f, r := range routes {
		set := make(map[channel]bool)
		for i := 1; i < len(r.Switches); i++ {
			set[channel{from: r.Switches[i-1], to: r.Switches[i], link: r.Links[i-1]}] = true
		}
		chansOf[f] = set
		flows = append(flows, f)
	}
	shareChannel := func(f, g model.Flow) bool {
		a, b := chansOf[f], chansOf[g]
		if len(b) < len(a) {
			a, b = b, a
		}
		for ch := range a {
			if b[ch] {
				return true
			}
		}
		return false
	}

	violations := 0
	for i := 0; i < len(flows); i++ {
		for j := i + 1; j < len(flows); j++ {
			if overlaps(flows[i], flows[j]) && shareChannel(flows[i], flows[j]) {
				violations++
				if violations <= 3 {
					t.Errorf("%s: C ∩ R violation: flows %v and %v overlap in time and share a channel",
						label, flows[i], flows[j])
				}
			}
		}
	}
	if violations > 3 {
		t.Errorf("%s: %d total C ∩ R violations", label, violations)
	}
}

// TestTheorem1InvariantAllCells recomputes Theorem 1 on every NAS
// benchmark/size cell.
func TestTheorem1InvariantAllCells(t *testing.T) {
	c := Quick()
	for _, name := range nas.Names() {
		small, large := nas.PaperProcs(name)
		for _, procs := range []int{small, large} {
			d, err := c.BuildDesign(name, procs)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, procs, err)
			}
			verifyTheorem1(t, d.Benchmark, d)
		}
	}
}

// TestTheorem1InvariantCollectives recomputes Theorem 1 on every collective
// workload at both harness grid sizes. The collectives are the maximally
// well-behaved end of the spectrum — every ring step is the same
// permutation — so a violation here would mean the synthesizer mishandles
// even the easiest inputs.
func TestTheorem1InvariantCollectives(t *testing.T) {
	c := Quick()
	for _, name := range collective.Names() {
		small, large := collective.PaperNodes(name)
		for _, nodes := range []int{small, large} {
			d, err := c.BuildDesign(name, nodes)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, nodes, err)
			}
			verifyTheorem1(t, d.Benchmark, d)
		}
	}
}
