package trace_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// encodeFmt is Encode as it was written with one fmt.Fprintf per line: the
// rendering the strconv version must reproduce byte for byte, since the
// encoded pattern is what the server hashes into a design's key.
func encodeFmt(p *model.Pattern) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	fmt.Fprintln(bw, "noctrace v1")
	if p.Name != "" {
		fmt.Fprintf(bw, "name %s\n", strings.ReplaceAll(p.Name, " ", "_"))
	}
	fmt.Fprintf(bw, "procs %d\n", p.Procs)
	for _, m := range p.Messages {
		fmt.Fprintf(bw, "msg %d %d %d %g %g %d\n", m.ID, m.Src, m.Dst, m.Start, m.Finish, m.Bytes)
	}
	for _, ph := range p.Phases {
		label := ph.Label
		if label == "" {
			label = "-"
		}
		fmt.Fprintf(bw, "phase %s %g %g %g", strings.ReplaceAll(label, " ", "_"), ph.Start, ph.Finish, ph.ComputeAfter)
		for _, mi := range ph.Messages {
			fmt.Fprintf(bw, " %d", mi)
		}
		fmt.Fprintln(bw)
	}
	bw.Flush()
	return buf.Bytes()
}

// codecCorpus is the codec tests' pattern set: every NAS benchmark at the
// paper's sizes and every collective at 8 and 64 nodes, each also skewed
// three ways, plus one pattern of values no generator emits.
func codecCorpus(t testing.TB) []*model.Pattern {
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
	// Skews that push times off the integers and across %g's switch to
	// exponent form in both directions, plus values no generator emits.
	for _, p := range pats { // the generated ones: range reads the slice once
		for _, skew := range []float64{0.5, 1e-9, 3e25} {
			pats = append(pats, trace.ApplySkew(p, skew, 1))
		}
	}
	pats = append(pats, &model.Pattern{Name: "odd one", Procs: 2, Messages: []model.Message{
		{ID: -3, Src: 0, Dst: 1, Start: math.SmallestNonzeroFloat64, Finish: math.MaxFloat64, Bytes: math.MaxInt64},
		{ID: 1, Src: 1, Dst: 0, Start: math.Copysign(0, -1), Finish: math.Inf(1)},
		{ID: 2, Src: 1, Dst: 0, Start: math.Inf(-1), Finish: math.NaN()},
		{ID: 3, Src: 0, Dst: 1, Start: 1e21, Finish: 1e-5, Bytes: 1},
		{ID: 4, Src: 0, Dst: 1, Start: 123456789.125, Finish: 0.000123, Bytes: 1},
	}, Phases: []model.Phase{
		{Label: "two words", Start: 100000, Finish: 1e20, ComputeAfter: 0.1, Messages: []int{0, 1}},
		{Messages: nil},
	}})
	return pats
}

func TestEncodeMatchesFmtRendering(t *testing.T) {
	for _, p := range codecCorpus(t) {
		var got bytes.Buffer
		if err := trace.Encode(&got, p); err != nil {
			t.Fatal(err)
		}
		if want := encodeFmt(p); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: Encode differs from the fmt rendering\n got: %.300q\nwant: %.300q", p.Name, got.Bytes(), want)
		}
	}
}
