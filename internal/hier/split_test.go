package hier

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
)

func ring64(t testing.TB) *model.Pattern {
	t.Helper()
	p, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSplitConservation is the flit-byte conservation law of the gateway
// remapping: every inter-cluster message crosses the NoI exactly once with
// its full payload and timing, every intra-cluster message lands in exactly
// one chiplet, and no level invents traffic. Message counts and byte totals
// must reconcile exactly — no loss, no duplication at gateways.
func TestSplitConservation(t *testing.T) {
	for _, tc := range []struct {
		pat  *model.Pattern
		spec string
	}{
		{cg16(t), "blocks:4"},
		{cg16(t), "flow:4"},
		{ring64(t), "blocks:4"},
		{cg16(t), "blocks:4"}, // repeated on purpose: split must be pure
	} {
		sp, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Partition(tc.pat, sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := SplitPattern(tc.pat, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range s.Levels() {
			if err := sub.Validate(); err != nil {
				t.Fatalf("%s %s: invalid sub-pattern: %v", tc.pat.Name, tc.spec, err)
			}
		}

		var interMsgs, interBytes int
		intraByCluster := make([]int, len(a.Clusters))
		for _, m := range tc.pat.Messages {
			if a.Of[m.Src] == a.Of[m.Dst] {
				intraByCluster[a.Of[m.Src]]++
			} else {
				interMsgs++
				interBytes += m.Bytes
			}
		}
		if s.NoI == nil {
			t.Fatalf("%s %s: no NoI pattern", tc.pat.Name, tc.spec)
		}
		// Exactly one NoI message per inter-cluster message, bytes intact.
		if len(s.NoI.Messages) != interMsgs {
			t.Errorf("%s %s: %d NoI messages for %d inter-cluster messages",
				tc.pat.Name, tc.spec, len(s.NoI.Messages), interMsgs)
		}
		if got := s.NoI.TotalBytes(); got != interBytes {
			t.Errorf("%s %s: NoI carries %d bytes, inter-cluster traffic is %d",
				tc.pat.Name, tc.spec, got, interBytes)
		}
		if s.InterMessages != interMsgs {
			t.Errorf("%s %s: InterMessages=%d, want %d", tc.pat.Name, tc.spec, s.InterMessages, interMsgs)
		}
		// Chiplets hold their intra messages plus forwarding legs only.
		for c, sub := range s.Chiplets {
			legs := 0
			for _, f := range tc.pat.Flows() {
				fp := pathFor(a, f)
				if fp.Intra {
					continue
				}
				var n int
				for _, m := range tc.pat.Messages {
					if m.Flow() == f {
						n++
					}
				}
				if fp.SrcCluster == c && fp.LegOut != nil {
					legs += n
				}
				if fp.DstCluster == c && fp.LegIn != nil {
					legs += n
				}
			}
			if len(sub.Messages) != intraByCluster[c]+legs {
				t.Errorf("%s %s: chiplet %d has %d messages, want %d intra + %d legs",
					tc.pat.Name, tc.spec, c, len(sub.Messages), intraByCluster[c], legs)
			}
		}
		// With uncapped boundary gateways there are no forwarding legs at
		// all: inter-cluster endpoints are their own gateways.
		for _, f := range tc.pat.Flows() {
			fp := pathFor(a, f)
			if fp.Intra {
				continue
			}
			if fp.LegOut != nil || fp.LegIn != nil {
				t.Errorf("%s %s: flow %v has forwarding legs under boundary gateways", tc.pat.Name, tc.spec, f)
			}
			if fp.OutGW != f.Src || fp.InGW != f.Dst {
				t.Errorf("%s %s: flow %v gateways (%d,%d), want its own endpoints", tc.pat.Name, tc.spec, f, fp.OutGW, fp.InGW)
			}
		}
		// Timing is copied verbatim: the NoI sub-pattern spans exactly the
		// inter-cluster messages' window.
		for _, m := range s.NoI.Messages {
			if m.Finish < m.Start || m.Bytes < 0 {
				t.Errorf("%s %s: NoI message %v malformed", tc.pat.Name, tc.spec, m)
			}
		}
		// Phase structure mirrors the original at every level.
		for _, sub := range s.Chiplets {
			if len(sub.Phases) != len(tc.pat.Phases) {
				t.Errorf("%s %s: chiplet %s has %d phases, original %d",
					tc.pat.Name, tc.spec, sub.Name, len(sub.Phases), len(tc.pat.Phases))
			}
		}
		if len(s.NoI.Phases) != len(tc.pat.Phases) {
			t.Errorf("%s %s: NoI has %d phases, original %d", tc.pat.Name, tc.spec, len(s.NoI.Phases), len(tc.pat.Phases))
		}
	}
}

// TestSplitCappedGatewaysForwarding pins the forwarding-leg path: with one
// gateway per cluster, non-gateway endpoints forward through it, and the
// conservation law still holds (legs carry the payload to the gateway, the
// NoI still carries each inter-cluster message exactly once).
func TestSplitCappedGatewaysForwarding(t *testing.T) {
	pat := cg16(t)
	sp, _ := ParseSpec("blocks:4")
	a, err := Partition(pat, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SplitPattern(pat, a)
	if err != nil {
		t.Fatal(err)
	}
	var interMsgs int
	for _, m := range pat.Messages {
		if a.Of[m.Src] != a.Of[m.Dst] {
			interMsgs++
		}
	}
	if len(s.NoI.Messages) != interMsgs {
		t.Fatalf("%d NoI messages for %d inter-cluster messages", len(s.NoI.Messages), interMsgs)
	}
	sawLeg := false
	for _, f := range pat.Flows() {
		fp := pathFor(a, f)
		if fp.Intra {
			continue
		}
		if a.NoIID[f.Src] < 0 {
			if fp.LegOut == nil {
				t.Errorf("flow %v: non-gateway source without forwarding leg", f)
			}
			sawLeg = true
		}
		if a.NoIID[f.Dst] < 0 && fp.LegIn == nil {
			t.Errorf("flow %v: non-gateway destination without forwarding leg", f)
		}
		if a.Of[fp.OutGW] != fp.SrcCluster || a.Of[fp.InGW] != fp.DstCluster {
			t.Errorf("flow %v: gateways in wrong clusters", f)
		}
	}
	if !sawLeg {
		t.Error("cap 1 produced no forwarding legs on CG-16")
	}
}

// projectRef is the split's definition, kept as the test oracle: one level's
// sub-pattern is the original with every message rewritten to zero or one
// replacement (nil drops it), survivors renumbered sequentially in their
// original order, and every phase mirrored with its label, bounds and compute
// gap around the survivors it contained — empty ones included. SplitPattern
// builds all levels in one walk; this builds one level per walk.
func projectRef(p *model.Pattern, name string, procs int, rewrite func(m model.Message) *model.Message) *model.Pattern {
	out := &model.Pattern{Name: name, Procs: procs}
	newIdx := make([]int, len(p.Messages))
	for i, m := range p.Messages {
		newIdx[i] = -1
		if nm := rewrite(m); nm != nil {
			kept := *nm
			kept.ID = len(out.Messages)
			newIdx[i] = kept.ID
			out.Messages = append(out.Messages, kept)
		}
	}
	for _, ph := range p.Phases {
		mirrored := model.Phase{Label: ph.Label, Start: ph.Start, Finish: ph.Finish, ComputeAfter: ph.ComputeAfter}
		for _, mi := range ph.Messages {
			if ni := newIdx[mi]; ni >= 0 {
				mirrored.Messages = append(mirrored.Messages, ni)
			}
		}
		out.Phases = append(out.Phases, mirrored)
	}
	return out
}

// TestSplitMatchesProjection holds every sub-pattern SplitPattern returns —
// name, processor count, message order, IDs, endpoints, timing, payload and
// the mirrored phase lists — to the level-by-level projection, with and
// without forwarding legs, and on a pattern with an empty phase.
func TestSplitMatchesProjection(t *testing.T) {
	gap := cg16(t)
	gap = &model.Pattern{Name: gap.Name, Procs: gap.Procs, Messages: gap.Messages,
		Phases: append([]model.Phase{{Label: "warm-up", ComputeAfter: 7}}, gap.Phases...)}
	for _, tc := range []struct {
		pat  *model.Pattern
		spec string
		cap  int
	}{
		{cg16(t), "blocks:4", 0},
		{cg16(t), "flow:4", 0},
		{cg16(t), "blocks:4", 1},
		{gap, "blocks:4", 2},
		{ring64(t), "blocks:8", 0},
		{ring64(t), "blocks:1", 0},
		{cg16(t), "blocks:16", 0}, // every chiplet empty
		{&model.Pattern{Name: "unphased", Procs: 16, Messages: cg16(t).Messages}, "blocks:4", 0},
	} {
		sp, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Partition(tc.pat, sp, tc.cap)
		if err != nil {
			t.Fatal(err)
		}
		s, err := SplitPattern(tc.pat, a)
		if err != nil {
			t.Fatal(err)
		}
		to := func(m model.Message, f model.Flow) *model.Message {
			m.Src, m.Dst = f.Src, f.Dst
			return &m
		}
		// Levels is chiplet 0 … k−1 then the NoI, each its own projection;
		// a single cluster has one level and no nil entry for the NoI.
		levels, want := s.Levels(), len(a.Clusters)
		if want > 1 {
			want++
		}
		if len(levels) != want {
			t.Errorf("%s %s: %d levels for %d clusters", tc.pat.Name, tc.spec, len(levels), len(a.Clusters))
		}
		for i, got := range levels {
			name, procs := tc.pat.Name+".noi", a.NoIProcs
			keep := func(m model.Message) *model.Message {
				if fp := pathFor(a, m.Flow()); !fp.Intra {
					return to(m, fp.NoI)
				}
				return nil
			}
			if c := i; c < len(a.Clusters) {
				name, procs = fmt.Sprintf("%s.c%d", tc.pat.Name, c), len(a.Clusters[c])
				keep = func(m model.Message) *model.Message {
					switch fp := pathFor(a, m.Flow()); {
					case fp.Intra && fp.Cluster == c:
						return to(m, fp.Local)
					case !fp.Intra && fp.SrcCluster == c && fp.LegOut != nil:
						return to(m, *fp.LegOut)
					case !fp.Intra && fp.DstCluster == c && fp.LegIn != nil:
						return to(m, *fp.LegIn)
					}
					return nil
				}
			}
			if want := projectRef(tc.pat, name, procs, keep); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s cap %d: level %d (%s) differs from its projection", tc.pat.Name, tc.spec, tc.cap, i, name)
			}
		}
	}
}

// BenchmarkSplitPattern is the split of the largest hier ledger class:
// ring-allreduce/64 (16,128 messages, 252 phases) over eight clusters.
func BenchmarkSplitPattern(b *testing.B) {
	pat := ring64(b)
	sp, err := ParseSpec("blocks:8")
	if err != nil {
		b.Fatal(err)
	}
	a, err := Partition(pat, sp, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitPattern(pat, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartition is the flow partition every hier request runs serially
// before its first level: ring-allreduce/64 over eight clusters (the largest
// hier ledger class), CG/16 over four, and BT/256 and CG/256 over sixteen,
// the scale cells.
func BenchmarkPartition(b *testing.B) {
	cg16, err := nas.Generate("CG", 16, nas.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		pat      *model.Pattern
		clusters string
	}{
		{"ring64", ring64(b), "8"},
		{"cg16", cg16, "4"},
		{"bt256", nas256(b, "BT"), "16"},
		{"cg256", nas256(b, "CG"), "16"},
	} {
		b.Run(c.name, func(b *testing.B) {
			sp, err := ParseSpec(c.clusters)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Partition(c.pat, sp, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
