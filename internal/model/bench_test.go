package model

import (
	"math/rand"
	"testing"
)

func benchPattern(msgs int) *Pattern {
	rng := rand.New(rand.NewSource(3))
	p := &Pattern{Name: "bench", Procs: 64}
	for i := 0; i < msgs; i++ {
		s := rng.Intn(64)
		d := rng.Intn(64)
		t0 := rng.Float64() * 100
		p.Messages = append(p.Messages, Message{
			ID: i, Src: s, Dst: d, Start: t0, Finish: t0 + rng.Float64()*5, Bytes: 1024,
		})
	}
	return p
}

func BenchmarkContentionPeriods(b *testing.B) {
	p := benchPattern(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ContentionPeriods(p); len(got) == 0 {
			b.Fatal("no periods")
		}
	}
}

func BenchmarkMaxCliques(b *testing.B) {
	p := benchPattern(2000)
	periods := ContentionPeriods(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxCliques(periods)
	}
}

func BenchmarkContentionSet(b *testing.B) {
	p := benchPattern(500)
	ix := NewFlowIndex(p.Flows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConflictMatrixFromCliques(ix, ContentionPeriods(p))
	}
}

func BenchmarkOverlapPairs(b *testing.B) {
	p := benchPattern(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OverlapPairs()
	}
}
