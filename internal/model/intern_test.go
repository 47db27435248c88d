package model_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
)

// internPatterns draws patterns for the interning oracles: few and many
// distinct flows (past a keySet's first table and through several growths),
// each repeated many times, self-flows among them, and nodes up to the top
// of the packable range.
func internPatterns() []*model.Pattern {
	rng := rand.New(rand.NewSource(11))
	var pats []*model.Pattern
	for trial := 0; trial < 200; trial++ {
		procs := 1 + rng.Intn(40)
		if trial%5 == 0 {
			procs = 1 + rng.Intn(400)
		}
		base := 0
		if trial%7 == 0 {
			base = 1<<32 - procs // nodes at the top of the key range
		}
		p := &model.Pattern{Name: fmt.Sprintf("intern %d", trial), Procs: base + procs}
		for i := range rng.Intn(3000) {
			p.Messages = append(p.Messages, model.Message{
				ID: i, Src: base + rng.Intn(procs), Dst: base + rng.Intn(procs), Start: float64(i),
			})
		}
		pats = append(pats, p)
	}
	return pats
}

// TestNewFlowIndexMatchesSortAll holds NewFlowIndex, which drops repeated
// keys before it sorts, to the index that sorted every key: the same flows
// in the same order and the same ID, or the same miss, for every message's
// flow and its reverse, on the codec corpus and on random patterns. The
// interning ContentionPeriods runs must give every message the same ID too.
func TestNewFlowIndexMatchesSortAll(t *testing.T) {
	pats := append(sortCorpus(t), internPatterns()...)
	for _, p := range pats {
		flows := make([]model.Flow, len(p.Messages))
		for i, m := range p.Messages {
			flows[i] = m.Flow()
		}
		got, want := model.NewFlowIndex(flows), model.NewFlowIndexSortAll(flows)
		if !reflect.DeepEqual(got.Flows(), want.Flows()) {
			t.Fatalf("%s: interned %d flows %v, the sort-all index %d %v", p.Name, got.Len(), got.Flows(), len(want.Flows()), want.Flows())
		}
		gotFlows, gotIDs := model.InternMessages(p)
		wantFlows, wantIDs := model.InternSortAll(p)
		if !reflect.DeepEqual(gotFlows, wantFlows) || !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Fatalf("%s: message interning differs from the sort-all index's", p.Name)
		}
		for _, f := range flows {
			for _, g := range []model.Flow{f, f.Reverse(), model.F(f.Src, f.Src+1)} {
				gi, gok := got.ID(g)
				wi, wok := want.ID(g)
				if gi != wi || gok != wok {
					t.Fatalf("%s: ID(%v) = %d, %v; the sort-all index's %d, %v", p.Name, g, gi, gok, wi, wok)
				}
			}
		}
	}
}

// TestPatternFlowsMatchesMap holds Pattern.Flows to the map it used to
// dedup through, nil for a pattern without a flow included, on the codec
// corpus, random patterns, and patterns with nodes no flow key packs (which
// take the comparator path).
func TestPatternFlowsMatchesMap(t *testing.T) {
	pats := append(sortCorpus(t), internPatterns()...)
	pats = append(pats,
		&model.Pattern{Name: "empty"},
		&model.Pattern{Name: "self", Procs: 2, Messages: []model.Message{{Src: 1, Dst: 1}, {Src: 0, Dst: 0}}},
	)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		p := &model.Pattern{Name: fmt.Sprintf("unpackable %d", trial)}
		odd := []int{-1 << 40, -3, -1, 0, 1, 2, 1<<32 - 1, 1 << 32, 1 << 40}
		for i := range 1 + rng.Intn(60) {
			p.Messages = append(p.Messages, model.Message{ID: i, Src: odd[rng.Intn(len(odd))], Dst: odd[rng.Intn(len(odd))]})
		}
		pats = append(pats, p)
	}
	for _, p := range pats {
		if got, want := p.Flows(), model.FlowsByMap(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Flows() = %v, the map's %v", p.Name, got, want)
		}
	}
}

// TestNewFlowIndexPanicsUnpackable pins that both indexes refuse a flow with
// a node outside [0, 2^32) and still skip such a node's self-flow.
func TestNewFlowIndexPanicsUnpackable(t *testing.T) {
	for _, f := range []model.Flow{model.F(-1, 0), model.F(0, 1<<32)} {
		for name, build := range map[string]func([]model.Flow){
			"NewFlowIndex": func(fs []model.Flow) { model.NewFlowIndex(fs) },
			"sort-all":     func(fs []model.Flow) { model.NewFlowIndexSortAll(fs) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%v) did not panic", name, f)
					}
				}()
				build([]model.Flow{model.F(0, 1), f})
			}()
		}
	}
	if ix := model.NewFlowIndex([]model.Flow{model.F(-1, -1), model.F(1<<32, 1<<32)}); ix.Len() != 0 {
		t.Errorf("unpackable self-flows interned %d flows, want 0", ix.Len())
	}
}

func benchmarkInternRing64(b *testing.B, periods func(*model.Pattern) []model.Clique, flows func(*model.Pattern) []model.Flow) {
	p, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		periodsSink, flowsSink = periods(p), flows(p)
	}
}

// periodsSink and flowsSink keep the benchmarked results live.
var (
	periodsSink []model.Clique
	flowsSink   []model.Flow
)

// BenchmarkInternRing64 is the two passes that intern ring-allreduce/64's
// 16,128 messages on the request path: ContentionPeriods, and Pattern.Flows
// for the report's summary. It and its Reference, the sort-all index and the
// map, are the model pair of the ingest gate (make bench-ingest).
func BenchmarkInternRing64(b *testing.B) {
	benchmarkInternRing64(b, model.ContentionPeriods, (*model.Pattern).Flows)
}
func BenchmarkInternRing64Reference(b *testing.B) {
	benchmarkInternRing64(b, model.ContentionPeriodsSortAll, model.FlowsByMap)
}
