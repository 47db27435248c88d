package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
)

func samplePhases() []PhaseSpec {
	return []PhaseSpec{
		{Label: "exchange", Flows: []model.Flow{model.F(0, 1), model.F(1, 0)}, Bytes: 1024, ComputeAfter: 5},
		{Label: "reduce", Flows: []model.Flow{model.F(2, 0), model.F(3, 1)}, Bytes: 64},
		{Label: "bcast", Flows: []model.Flow{model.F(0, 2), model.F(0, 3)}, Bytes: 8, Duration: 2.5},
	}
}

func TestBuildPhasedStructure(t *testing.T) {
	p := BuildPhased("sample", 4, samplePhases())
	if err := p.Validate(); err != nil {
		t.Fatalf("built pattern invalid: %v", err)
	}
	if len(p.Messages) != 6 || len(p.Phases) != 3 {
		t.Fatalf("got %d messages, %d phases; want 6, 3", len(p.Messages), len(p.Phases))
	}
	// Each phase must be one contention period: messages within a phase
	// share times, and consecutive phases must not overlap.
	periods := model.ContentionPeriods(p)
	if len(periods) != 3 {
		t.Fatalf("phases should yield 3 distinct periods, got %d: %v", len(periods), periods)
	}
	for i, ph := range p.Phases {
		for _, mi := range ph.Messages {
			m := p.Messages[mi]
			if m.Start != ph.Start || m.Finish != ph.Finish {
				t.Errorf("phase %d message %d times (%g,%g) != phase (%g,%g)", i, mi, m.Start, m.Finish, ph.Start, ph.Finish)
			}
		}
	}
	// Default duration: 1024 bytes -> 16 units; explicit 2.5 respected.
	if d := p.Phases[0].Finish - p.Phases[0].Start; d != 16 {
		t.Errorf("phase 0 duration %g, want 16", d)
	}
	if d := p.Phases[2].Finish - p.Phases[2].Start; d != 2.5 {
		t.Errorf("phase 2 duration %g, want 2.5", d)
	}
	// Compute gap honored.
	gap := p.Phases[1].Start - p.Phases[0].Finish
	if gap < 5 || gap > 5.001 {
		t.Errorf("gap after phase 0 = %g, want ~5", gap)
	}
}

func TestBuildPhasedMinDuration(t *testing.T) {
	p := BuildPhased("tiny", 2, []PhaseSpec{{Flows: []model.Flow{model.F(0, 1)}, Bytes: 4}})
	if d := p.Phases[0].Finish - p.Phases[0].Start; d != 1 {
		t.Fatalf("minimum duration = %g, want 1", d)
	}
}

func TestApplySkewDeterministicAndBounded(t *testing.T) {
	p := BuildPhased("sample", 4, samplePhases())
	s1 := ApplySkew(p, 3.0, 11)
	s2 := ApplySkew(p, 3.0, 11)
	for i := range s1.Messages {
		if s1.Messages[i] != s2.Messages[i] {
			t.Fatalf("skew not deterministic at message %d", i)
		}
		shift := s1.Messages[i].Start - p.Messages[i].Start
		if shift < 0 || shift > 3.0 {
			t.Fatalf("skew %g out of [0,3]", shift)
		}
		dur0 := p.Messages[i].Finish - p.Messages[i].Start
		dur1 := s1.Messages[i].Finish - s1.Messages[i].Start
		if math.Abs(dur0-dur1) > 1e-9 {
			t.Fatalf("skew changed message duration")
		}
	}
	// Same source => same shift.
	bySrc := make(map[int]float64)
	for i, m := range p.Messages {
		shift := s1.Messages[i].Start - m.Start
		if prev, ok := bySrc[m.Src]; ok && math.Abs(prev-shift) > 1e-12 {
			t.Fatalf("messages from proc %d have different skews", m.Src)
		}
		bySrc[m.Src] = shift
	}
	// Original pattern untouched.
	p2 := BuildPhased("sample", 4, samplePhases())
	for i := range p.Messages {
		if p.Messages[i] != p2.Messages[i] {
			t.Fatalf("ApplySkew mutated its input")
		}
	}
}

func TestApplySkewZero(t *testing.T) {
	p := BuildPhased("sample", 4, samplePhases())
	s := ApplySkew(p, 0, 1)
	for i := range p.Messages {
		if s.Messages[i] != p.Messages[i] {
			t.Fatalf("zero skew changed message %d", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := BuildPhased("round trip", 4, samplePhases())
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Name != "round_trip" {
		t.Errorf("name = %q", got.Name)
	}
	if got.Procs != p.Procs || len(got.Messages) != len(p.Messages) || len(got.Phases) != len(p.Phases) {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := range p.Messages {
		if got.Messages[i] != p.Messages[i] {
			t.Fatalf("message %d: %+v != %+v", i, got.Messages[i], p.Messages[i])
		}
	}
	for i := range p.Phases {
		if got.Phases[i].Start != p.Phases[i].Start || got.Phases[i].ComputeAfter != p.Phases[i].ComputeAfter {
			t.Fatalf("phase %d mismatch", i)
		}
		if len(got.Phases[i].Messages) != len(p.Phases[i].Messages) {
			t.Fatalf("phase %d message refs mismatch", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct{ name, input string }{
		{"no header", "procs 4\n"},
		{"bad header", "noctrace v2\n"},
		{"empty", ""},
		{"bad directive", "noctrace v1\nwidget 3\n"},
		{"short msg", "noctrace v1\nprocs 2\nmsg 0 0 1 0\n"},
		{"bad src", "noctrace v1\nprocs 2\nmsg 0 x 1 0 1 4\n"},
		{"bad float", "noctrace v1\nprocs 2\nmsg 0 0 1 zz 1 4\n"},
		{"invalid pattern", "noctrace v1\nprocs 2\nmsg 0 0 5 0 1 4\n"},
		{"bad phase ref", "noctrace v1\nprocs 2\nphase p 0 1 0 9\n"},
		{"procs arity", "noctrace v1\nprocs 4 4\n"},
		{"procs past 2^32", "noctrace v1\nprocs 4294967297\n"},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: Decode accepted invalid input", c.name)
		}
	}
}

func TestDecodeCommentsAndBlank(t *testing.T) {
	in := "# header comment\n\nnoctrace v1\n# body\nprocs 2\nmsg 0 0 1 0 1.5 32\n"
	p, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Procs != 2 || len(p.Messages) != 1 || p.Messages[0].Finish != 1.5 {
		t.Fatalf("decoded %+v", p)
	}
}

func TestSummarize(t *testing.T) {
	p := BuildPhased("sample", 4, samplePhases())
	st := Summarize(p)
	if st.Procs != 4 || st.Messages != 6 || st.Phases != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Periods != 3 || st.MaxPeriods != 3 {
		t.Fatalf("period stats = %+v", st)
	}
	if st.LargestCliq != 2 {
		t.Fatalf("largest clique = %d, want 2", st.LargestCliq)
	}
	if st.TotalBytes != 2*1024+2*64+2*8 {
		t.Fatalf("total bytes = %d", st.TotalBytes)
	}
	if st.ContentionSz != 3 {
		// each phase has exactly one pair of concurrent flows
		t.Fatalf("contention size = %d, want 3", st.ContentionSz)
	}
}

// TestSummarizeCliquesReadsGivenSets: handed the sets Summarize derives, it
// returns Summarize's answer; handed others, it reports those — it does not
// go back to the messages for the contention model.
func TestSummarizeCliquesReadsGivenSets(t *testing.T) {
	p := ApplySkew(BuildPhased("sample", 4, samplePhases()), 0.5, 1)
	periods := model.ContentionPeriods(p)
	if got, want := SummarizeCliques(p, periods, model.MaxCliques(periods)), Summarize(p); got != want {
		t.Fatalf("SummarizeCliques = %+v, Summarize = %+v", got, want)
	}
	one := []model.Clique{model.NewClique(model.F(0, 1), model.F(2, 3), model.F(3, 2))}
	st := SummarizeCliques(p, append(one, one...), one)
	if st.Periods != 2 || st.MaxPeriods != 1 || st.LargestCliq != 3 || st.ContentionSz != 3 {
		t.Fatalf("stats do not follow the given sets: %+v", st)
	}
}

func TestConcatUnionOfPeriods(t *testing.T) {
	a := BuildPhased("a", 4, []PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1), model.F(2, 3)}, Bytes: 64},
	})
	b := BuildPhased("b", 4, []PhaseSpec{
		{Flows: []model.Flow{model.F(1, 0), model.F(3, 2)}, Bytes: 64},
		{Flows: []model.Flow{model.F(0, 2)}, Bytes: 64},
	})
	m, err := Concat("ab", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Procs != 4 || len(m.Messages) != 5 || len(m.Phases) != 3 {
		t.Fatalf("merged shape: %d procs %d msgs %d phases", m.Procs, len(m.Messages), len(m.Phases))
	}
	// The merged contention periods must be exactly the union: 3 periods,
	// and no cross-application contention pair.
	periods := model.ContentionPeriods(m)
	if len(periods) != 3 {
		t.Fatalf("merged periods = %d, want 3: %v", len(periods), periods)
	}
	ix := model.NewFlowIndex(m.Flows())
	c := model.ConflictMatrixFromCliques(ix, periods)
	contend := func(a, b model.Flow) bool {
		i, _ := ix.ID(a)
		j, _ := ix.ID(b)
		return c.Has(i, j)
	}
	if contend(model.F(0, 1), model.F(1, 0)) {
		t.Error("cross-application flows must not contend")
	}
	if !contend(model.F(0, 1), model.F(2, 3)) || !contend(model.F(1, 0), model.F(3, 2)) {
		t.Error("within-application contention lost")
	}
	// Phase message references must resolve.
	for pi, ph := range m.Phases {
		for _, mi := range ph.Messages {
			if mi < 0 || mi >= len(m.Messages) {
				t.Fatalf("phase %d references message %d", pi, mi)
			}
		}
	}
}

func TestConcatRejectsMismatch(t *testing.T) {
	a := BuildPhased("a", 4, nil)
	b := BuildPhased("b", 8, nil)
	if _, err := Concat("ab", a, b); err == nil {
		t.Fatal("mismatched processor counts accepted")
	}
	if _, err := Concat("empty"); err == nil {
		t.Fatal("empty Concat accepted")
	}
}
