package model

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if b.Count() != 0 {
		t.Fatal("new bitset not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 127, 129} {
		b.Set(i)
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
	if !b.Has(129) || b.Has(128) {
		t.Fatal("Has wrong")
	}
	b.Clear(129)
	if b.Has(129) || b.Count() != 5 {
		t.Fatal("Clear wrong")
	}
	var got []int
	got = b.Elems(got)
	want := []int{0, 1, 63, 64, 127}
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
}

func TestBitSetAgainstMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200
	for trial := 0; trial < 50; trial++ {
		a, b := NewBitSet(n), NewBitSet(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < 80; i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			a.Set(x)
			ma[x] = true
			b.Set(y)
			mb[y] = true
		}
		inter := 0
		for x := range ma {
			if mb[x] {
				inter++
			}
		}
		if got := a.AndCount(b); got != inter {
			t.Fatalf("AndCount = %d, map reference = %d", got, inter)
		}
		if a.Count() != len(ma) || b.Count() != len(mb) {
			t.Fatal("Count disagrees with map size")
		}
		for i, x := range a.Elems(nil) {
			if r := a.Rank(x); r != i {
				t.Fatalf("Rank(%d) = %d, want its position %d", x, r, i)
			}
		}
		u := NewBitSet(n)
		u.Or(a)
		u.Or(b)
		for x := range mb {
			ma[x] = true
		}
		if u.Count() != len(ma) {
			t.Fatalf("Or count = %d, want %d", u.Count(), len(ma))
		}
	}
}

func TestBitSetEqualIgnoresUniverseSize(t *testing.T) {
	small, big := NewBitSet(64), NewBitSet(256)
	small.Set(3)
	big.Set(3)
	if !small.Equal(big) || !big.Equal(small) {
		t.Fatal("Equal not universe-size independent")
	}
}

// TestBitSetNext holds the next-member walk to ForEach on random sets, at
// the word boundaries and past the end, and pins that a walk sees what is
// set or cleared ahead of its cursor.
func TestBitSetNext(t *testing.T) {
	walk := func(b BitSet) []int {
		var out []int
		for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
			out = append(out, i)
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		b := NewBitSet(n)
		for k := rng.Intn(n + 1); k > 0; k-- {
			b.Set(rng.Intn(n))
		}
		if got, want := walk(b), b.Elems(nil); !slices.Equal(got, want) {
			t.Fatalf("walk = %v, ForEach = %v", got, want)
		}
	}

	b := NewBitSet(192)
	for _, i := range []int{63, 64, 127} {
		b.Set(i)
	}
	for _, c := range []struct{ from, want int }{
		{0, 63}, {63, 63}, {64, 64}, {65, 127}, {127, 127},
		{128, -1}, {191, -1}, {192, -1}, {1000, -1},
	} {
		if got := b.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := NewBitSet(0).Next(0); got != -1 {
		t.Errorf("empty Next(0) = %d, want -1", got)
	}

	// Visiting 63 sets 130 and clears 127; visiting 64 sets 65, in the
	// same word as the cursor.
	var seen []int
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		seen = append(seen, i)
		switch i {
		case 63:
			b.Set(130)
			b.Clear(127)
		case 64:
			b.Set(65)
		}
	}
	if want := []int{63, 64, 65, 130}; !slices.Equal(seen, want) {
		t.Errorf("walk with edits ahead = %v, want %v", seen, want)
	}
}

// TestFlowIndexRoundTrip interns flow lists, up to the widest nodes a flow
// key packs, and holds each index to the map-and-sort interning it replaced:
// the same flows in Flow.Less order, every ID resolved back, and no other
// flow resolved, one whose nodes do not pack included. A flow that does not
// pack is a caller bug, since Validate bounds Procs by 2^32: NewFlowIndex
// panics on it.
func TestFlowIndexRoundTrip(t *testing.T) {
	const big = 1 << 40
	cases := [][]Flow{
		{F(3, 1), F(0, 2), F(3, 1), F(5, 5), F(1, 3)},
		{F(1<<32-1, 0), F(0, 1<<32-1), F(1<<32-1, 1<<32-2), F(0, 1<<32-1)},
		{F(7, 7)},
		nil,
	}
	for _, flows := range cases {
		ix := NewFlowIndex(flows)
		seen := map[Flow]bool{}
		var want []Flow
		for _, f := range flows {
			if f.Src != f.Dst && !seen[f] {
				seen[f] = true
				want = append(want, f)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		if !slices.Equal(ix.Flows(), want) {
			t.Fatalf("%v: interned %v, want %v", flows, ix.Flows(), want)
		}
		for i := 0; i < ix.Len(); i++ {
			if id, ok := ix.ID(ix.Flow(i)); !ok || id != i {
				t.Fatalf("%v: ID(%v) = %d, %t; want %d", flows, ix.Flow(i), id, ok, i)
			}
		}
		for _, f := range []Flow{F(9, 9), F(2, 0), F(-1, 0), F(big, 0), F(0, big+1)} {
			if id, ok := ix.ID(f); ok || id != 0 {
				t.Fatalf("%v: unknown flow %v resolved to %d, %t", flows, f, id, ok)
			}
		}
	}
	for _, f := range []Flow{F(-2, 3), F(1, 1<<32), F(big, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFlowIndex accepted %v, whose nodes do not pack", f)
				}
			}()
			NewFlowIndex([]Flow{F(0, 1), f})
		}()
	}
}

func TestConflictMatrixMatchesPairSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := benchPattern(150)
		cliques := MaxCliqueSet(p)
		ix := NewFlowIndex(CliqueFlows(cliques))
		ps := ContentionSetFromCliques(cliques)
		cm := ConflictMatrixFromCliques(ix, cliques)
		if ps.Len() != cm.Len() {
			t.Fatalf("trial %d: PairSet.Len %d != ConflictMatrix.Len %d", trial, ps.Len(), cm.Len())
		}
		fs := ix.Flows()
		for i := 0; i < len(fs); i++ {
			for j := 0; j < len(fs); j++ {
				want := i != j && ps.Has(fs[i], fs[j])
				if got := cm.Has(i, j); got != want {
					t.Fatalf("trial %d: Has(%v,%v) = %v, want %v", trial, fs[i], fs[j], got, want)
				}
			}
		}
		// Random second relation: intersection must match PairSet.Intersect
		// pair-for-pair, order included.
		ps2 := NewPairSet()
		cm2 := NewConflictMatrix(ix)
		for k := 0; k < 60; k++ {
			i, j := rng.Intn(len(fs)), rng.Intn(len(fs))
			if i == j {
				continue
			}
			ps2.Add(fs[i], fs[j])
			cm2.Add(i, j)
		}
		wantPairs := ps.Intersect(ps2)
		gotPairs := cm.Intersect(cm2)
		if len(wantPairs) != len(gotPairs) {
			t.Fatalf("trial %d: Intersect lengths %d vs %d", trial, len(gotPairs), len(wantPairs))
		}
		for k := range wantPairs {
			if wantPairs[k] != gotPairs[k] {
				t.Fatalf("trial %d: Intersect[%d] = %v, want %v", trial, k, gotPairs[k], wantPairs[k])
			}
		}
		freeWant, witWant := ContentionFree(ps, ps2)
		freeGot, witGot := ContentionFreeBits(cm, cm2)
		if freeWant != freeGot || len(witWant) != len(witGot) {
			t.Fatalf("trial %d: ContentionFreeBits disagrees with ContentionFree", trial)
		}
		for k := range witWant {
			if witWant[k] != witGot[k] {
				t.Fatalf("trial %d: witness[%d] = %v, want %v", trial, k, witGot[k], witWant[k])
			}
		}
	}
}

func TestMaxCliquesDropsDuplicatesAndKeepsOrder(t *testing.T) {
	a := NewClique(F(0, 1), F(2, 3))
	b := NewClique(F(4, 5), F(6, 7))
	dupA := NewClique(F(2, 3), F(0, 1)) // equal to a
	sub := NewClique(F(0, 1))           // dominated by a
	got := MaxCliques([]Clique{a, b, dupA, sub})
	if len(got) != 2 {
		t.Fatalf("MaxCliques kept %d cliques, want 2: %v", len(got), got)
	}
	if !got[0].Equal(a) || !got[1].Equal(b) {
		t.Fatalf("first-occurrence order not preserved: %v", got)
	}
	// Equal-size distinct cliques all survive, in input order.
	c := NewClique(F(8, 9), F(1, 0))
	got = MaxCliques([]Clique{b, c, a})
	if len(got) != 3 || !got[0].Equal(b) || !got[1].Equal(c) || !got[2].Equal(a) {
		t.Fatalf("equal-size cliques mangled: %v", got)
	}
}

func TestCliqueKeyMatchesLegacyFormat(t *testing.T) {
	c := NewClique(F(10, 2), F(0, 1), F(3, 14))
	if got, want := c.Key(), "0>1;3>14;10>2;"; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	if NewClique().Key() != "" {
		t.Fatal("empty clique key not empty")
	}
}

func TestContentionPeriodsSkipEquivalence(t *testing.T) {
	// Patterns with long runs of identical active sets (shared event
	// points) must produce the same periods as a naive per-event rebuild.
	for _, msgs := range []int{50, 200, 800} {
		p := benchPattern(msgs)
		got := ContentionPeriods(p)
		want := contentionPeriodsNaive(p)
		if len(got) != len(want) {
			t.Fatalf("msgs=%d: %d periods, want %d", msgs, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("msgs=%d: period %d = %v, want %v", msgs, i, got[i], want[i])
			}
		}
	}
}

// contentionPeriodsNaive is the O(M·E) reference: for every event time,
// collect all messages whose inclusive interval covers it.
func contentionPeriodsNaive(p *Pattern) []Clique {
	var events []float64
	for _, m := range p.Messages {
		events = append(events, m.Start, m.Finish)
	}
	sort.Float64s(events)
	events = dedupFloats(events)
	seen := make(map[string]bool)
	var out []Clique
	for _, t := range events {
		var flows []Flow
		for _, m := range p.Messages {
			if m.Start <= t && t <= m.Finish {
				flows = append(flows, m.Flow())
			}
		}
		c := NewClique(flows...)
		if len(c) == 0 {
			continue
		}
		if k := c.Key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}
