package model_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// sortCorpus is the trace codec tests' pattern set: every NAS benchmark at
// the paper's sizes and every collective at 8 and 64 nodes, each also skewed
// three ways, so times fall off the integers and span many exponents.
func sortCorpus(t *testing.T) []*model.Pattern {
	t.Helper()
	var pats []*model.Pattern
	for _, name := range nas.Names() {
		small, large := nas.PaperProcs(name)
		for _, procs := range []int{small, large} {
			p, err := nas.Generate(name, procs, nas.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pats = append(pats, p)
		}
	}
	for _, name := range collective.Names() {
		for _, nodes := range []int{8, 64} {
			p, err := collective.Generate(name, nodes, collective.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pats = append(pats, p)
		}
	}
	for _, p := range pats { // the generated ones: range reads the slice once
		for _, skew := range []float64{0.5, 1e-9, 3e25} {
			pats = append(pats, trace.ApplySkew(p, skew, 1))
		}
	}
	return pats
}

// oddTimes are the times cmp.Compare orders specially or that tie: NaNs of
// several payloads and both signs (all equal, below −Inf), both zeros
// (equal), both infinities, subnormals and repeats.
var oddTimes = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
	math.Inf(-1), -1e300, -2, -1, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
	1, 1, 2, 2.5, 1e300, math.Inf(1),
}

// oddPatterns draws messages whose starts and finishes come from oddTimes,
// so most instants are ties and every special value occurs.
func oddPatterns() []*model.Pattern {
	rng := rand.New(rand.NewSource(7))
	var pats []*model.Pattern
	for trial := 0; trial < 400; trial++ {
		procs := 2 + rng.Intn(6)
		p := &model.Pattern{Name: fmt.Sprintf("odd %d", trial), Procs: procs}
		for i := range 1 + rng.Intn(40) {
			p.Messages = append(p.Messages, model.Message{
				ID: i, Src: rng.Intn(procs), Dst: rng.Intn(procs),
				Start: oddTimes[rng.Intn(len(oddTimes))], Finish: oddTimes[rng.Intn(len(oddTimes))],
			})
		}
		pats = append(pats, p)
	}
	return pats
}

// TestContentionPeriodsMatchComparatorSort holds ContentionPeriods, whose
// event lists a radix sort on time keys orders, to the same sweep over lists
// sorted by cmp.Compare: the same cliques in the same order, on the codec
// corpus and on patterns of ties, signed zeros, infinities and NaN times.
func TestContentionPeriodsMatchComparatorSort(t *testing.T) {
	pats := append(sortCorpus(t), oddPatterns()...)
	nan := 0
	for _, p := range pats {
		got, want := model.ContentionPeriods(p), model.ContentionPeriodsSortFunc(p)
		if len(got) != len(want) {
			t.Fatalf("%s: %d periods, the comparator sort's %d", p.Name, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: period %d is %v, the comparator sort's %v", p.Name, i, got[i], want[i])
			}
		}
		for _, m := range p.Messages {
			if math.IsNaN(m.Start) || math.IsNaN(m.Finish) {
				nan++
				break
			}
		}
	}
	if nan == 0 {
		t.Fatal("no pattern has a NaN time")
	}
}
