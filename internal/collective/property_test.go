package collective

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestStepCountFormulas pins the closed-form phase counts: N−1 steps per
// ring pass, 2(N−1) for ring allreduce, log₂N rounds for the broadcast
// tree, each multiplied by the repeat count.
func TestStepCountFormulas(t *testing.T) {
	for _, name := range Names() {
		for _, nodes := range []int{2, 4, 8, 16, 64, 256} {
			for _, repeats := range []int{1, 3} {
				p, err := Generate(name, nodes, Config{Repeats: repeats})
				if err != nil {
					t.Fatalf("Generate(%s, %d): %v", name, nodes, err)
				}
				per, ok := Steps(name, nodes)
				if !ok {
					t.Fatalf("Steps(%s) unknown", name)
				}
				if got, want := len(p.Phases), per*repeats; got != want {
					t.Errorf("%s/%d x%d: %d phases, want %d", name, nodes, repeats, got, want)
				}
			}
		}
	}
}

// TestRingByteConservation verifies the allreduce bandwidth identity: with
// a buffer divisible by N, every node sends and receives exactly
// (N−1)/N · B per reduce-scatter or all-gather pass — so 2(N−1)/N · B for
// the full ring allreduce. The ring schedule is the bandwidth-optimal
// algorithm precisely because these totals meet the lower bound.
func TestRingByteConservation(t *testing.T) {
	passes := map[string]int{"reduce-scatter": 1, "all-gather": 1, "ring-allreduce": 2}
	for name, numPasses := range passes {
		for _, nodes := range []int{4, 8, 16} {
			chunk := 256
			cfg := Config{Repeats: 1, BufferBytes: chunk * nodes}
			p, err := Generate(name, nodes, cfg)
			if err != nil {
				t.Fatalf("Generate(%s, %d): %v", name, nodes, err)
			}
			sent := make([]int, nodes)
			recvd := make([]int, nodes)
			for _, m := range p.Messages {
				sent[m.Src] += m.Bytes
				recvd[m.Dst] += m.Bytes
			}
			want := numPasses * (nodes - 1) * chunk
			for i := 0; i < nodes; i++ {
				if sent[i] != want {
					t.Errorf("%s/%d: node %d sent %d bytes, want %d", name, nodes, i, sent[i], want)
				}
				if recvd[i] != want {
					t.Errorf("%s/%d: node %d received %d bytes, want %d", name, nodes, i, recvd[i], want)
				}
			}
		}
	}
}

// TestTreeBroadcastDelivery verifies the broadcast invariants: every
// non-root node receives the full buffer exactly once, the root receives
// nothing, and total traffic is (N−1)·B (each node informed by exactly one
// message).
func TestTreeBroadcastDelivery(t *testing.T) {
	for _, nodes := range []int{2, 8, 16, 64} {
		const buf = 4096
		p, err := Generate("tree-broadcast", nodes, Config{Repeats: 1, BufferBytes: buf})
		if err != nil {
			t.Fatalf("Generate(tree-broadcast, %d): %v", nodes, err)
		}
		recvd := make([]int, nodes)
		recvCount := make([]int, nodes)
		total := 0
		for _, m := range p.Messages {
			recvd[m.Dst] += m.Bytes
			recvCount[m.Dst]++
			total += m.Bytes
		}
		if recvd[0] != 0 {
			t.Errorf("N=%d: root received %d bytes, want 0", nodes, recvd[0])
		}
		for i := 1; i < nodes; i++ {
			if recvd[i] != buf || recvCount[i] != 1 {
				t.Errorf("N=%d: node %d received %d bytes in %d messages, want %d in 1",
					nodes, i, recvd[i], recvCount[i], buf)
			}
		}
		if want := (nodes - 1) * buf; total != want {
			t.Errorf("N=%d: total traffic %d bytes, want %d", nodes, total, want)
		}
	}
}

// TestPhasesArePermutations pins the well-behavedness of each synchronized
// step at the schedule level: within any phase, no node sends more than one
// message and no node receives more than one, and the broadcast rounds keep
// senders and receivers disjoint. This is the structural property that lets
// the synthesizer route every phase contention-free.
func TestPhasesArePermutations(t *testing.T) {
	for _, name := range Names() {
		for _, nodes := range []int{8, 16, 32} {
			p, err := Generate(name, nodes, Config{Repeats: 1})
			if err != nil {
				t.Fatalf("Generate(%s, %d): %v", name, nodes, err)
			}
			for pi, ph := range p.Phases {
				srcs := make(map[int]bool)
				dsts := make(map[int]bool)
				for _, mi := range ph.Messages {
					m := p.Messages[mi]
					if srcs[m.Src] {
						t.Errorf("%s/%d phase %d (%s): node %d sends twice", name, nodes, pi, ph.Label, m.Src)
					}
					if dsts[m.Dst] {
						t.Errorf("%s/%d phase %d (%s): node %d receives twice", name, nodes, pi, ph.Label, m.Dst)
					}
					srcs[m.Src] = true
					dsts[m.Dst] = true
				}
				if name == "tree-broadcast" {
					for s := range srcs {
						if dsts[s] {
							t.Errorf("%s/%d phase %d: node %d both sends and receives", name, nodes, pi, s)
						}
					}
				}
			}
		}
	}
}

// TestPhasesAreContentionPeriods checks the temporal side of
// well-behavedness. Consecutive phases never overlap, so each phase is one
// contention period — and because ContentionPeriods dedupes identical flow
// sets (Definition 5 collects *distinct* cliques), the whole collective
// collapses to a handful of periods: one for a ring collective (every step
// is the same successor permutation) and log₂N for the broadcast tree (one
// per round shape). This is the quantitative sense in which collectives are
// maximally well-behaved: the contention model the synthesizer must satisfy
// is constant-size no matter how many repeats the trace carries.
func TestPhasesAreContentionPeriods(t *testing.T) {
	const nodes = 16
	wantPeriods := map[string]int{
		"ring-allreduce": 1,
		"reduce-scatter": 1,
		"all-gather":     1,
		"tree-broadcast": 4, // log2(16)
	}
	for _, name := range Names() {
		p, err := Generate(name, nodes, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(p.Phases); i++ {
			if p.Phases[i].Start <= p.Phases[i-1].Finish {
				t.Errorf("%s: phase %d starts at %g, before phase %d finishes (%g)",
					name, i, p.Phases[i].Start, i-1, p.Phases[i-1].Finish)
			}
		}
		st := trace.Summarize(p)
		if st.Periods != wantPeriods[name] {
			t.Errorf("%s/%d: %d distinct contention periods, want %d", name, nodes, st.Periods, wantPeriods[name])
		}
	}
}

// TestNormalizedDefaults pins the documented Config defaults and that
// normalization is idempotent.
func TestNormalizedDefaults(t *testing.T) {
	n := Config{}.Normalized()
	if n.BufferBytes != 16384 || n.Repeats != 2 || n.ByteScale != 1 {
		t.Errorf("Normalized zero config = %+v", n)
	}
	if n != n.Normalized() {
		t.Error("Normalized is not idempotent")
	}
	set := Config{BufferBytes: 64, Repeats: 1, ByteScale: 0.5}
	if got := set.Normalized(); got != set {
		t.Errorf("Normalized overwrote set fields: %+v", got)
	}
}

// TestGenerateTelemetry checks the collective.* counters land on an
// attached Observer with the documented values, and that the pattern's
// shape matches the ring formulas (2(N−1) phases of N messages).
func TestGenerateTelemetry(t *testing.T) {
	col := obs.NewCollector()
	p, err := Generate("ring-allreduce", 8, Config{Repeats: 1, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.Messages), 2*(8-1)*8; got != want {
		t.Fatalf("ring-allreduce.8 has %d messages, want %d", got, want)
	}
	if p.Name != fmt.Sprintf("ring-allreduce.%d", 8) {
		t.Errorf("pattern name %q", p.Name)
	}
	for name, want := range map[string]int64{
		"collective.patterns": 1,
		"collective.messages": int64(len(p.Messages)),
		"collective.phases":   int64(len(p.Phases)),
	} {
		if got := col.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestMessagesClosedForm holds Messages, which bounds server requests without
// building them, to the generators it counts, over every node count each
// collective accepts up to 64 and a sweep of repeat counts, the default
// included.
func TestMessagesClosedForm(t *testing.T) {
	for _, name := range Names() {
		for nodes := MinNodes; nodes <= 64; nodes++ {
			for _, repeats := range []int{0, 1, 3} {
				cfg := Config{Repeats: repeats}
				p, err := Generate(name, nodes, cfg)
				if err != nil {
					continue // a shape the collective rejects
				}
				if got, ok := Messages(name, nodes, cfg); !ok || got != len(p.Messages) {
					t.Errorf("Messages(%s, %d, %d repeats) = %d, %t; the generator emits %d", name, nodes, repeats, got, ok, len(p.Messages))
				}
			}
		}
	}
	if _, ok := Messages("all-to-all", 16, Config{}); ok {
		t.Error("Messages counts an unknown collective")
	}
}
