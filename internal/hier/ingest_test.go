package hier

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
)

// nas256 generates a NAS benchmark at 256 processors, the size at which
// rescanning every group pair cost flowPartition tens of milliseconds.
func nas256(tb testing.TB, name string) *model.Pattern {
	tb.Helper()
	p, err := nas.Generate(name, 256, nas.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestFlowPartitionMatchesRescan holds flowPartition, which keeps a matrix
// of group weights and updates it on each merge, to the partitioner that
// summed every candidate pair's weight on every scan: the same groups in the
// same order, so the same Assignment. 600 random patterns at k = 2 to 16
// draw many equal weights (a third are a few unit-weight messages, ties
// everywhere), zero-byte messages and, in a few, negative
// sizes, which Validate rejects but the partitioner must still treat as the
// rescan did; uneven sizes drive the balance fallback. BT/256 and CG/256 at
// 16 are the large cases.
func TestFlowPartitionMatchesRescan(t *testing.T) {
	type tc struct {
		p *model.Pattern
		k int
	}
	var cases []tc
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 600; trial++ {
		procs := 2 + rng.Intn(47)
		p := &model.Pattern{Name: fmt.Sprintf("random %d", trial), Procs: procs}
		msgs, size := rng.Intn(6*procs), 64
		if trial%3 == 1 { // sparse unit weights: ties everywhere
			msgs, size = rng.Intn(procs+1), 0
		}
		for i := range msgs {
			p.Messages = append(p.Messages, model.Message{
				ID: i, Src: rng.Intn(procs), Dst: rng.Intn(procs), Bytes: size * rng.Intn(3),
			})
			if trial%10 == 0 && i%7 == 0 {
				p.Messages[i].Bytes = -64 // weights below zero never merge by weight
			}
		}
		cases = append(cases, tc{p, 2 + rng.Intn(min(15, procs-1))})
	}
	cases = append(cases, tc{nas256(t, "BT"), 16}, tc{nas256(t, "CG"), 16})
	fallback := 0
	for _, c := range cases {
		got, want := flowPartition(c.p, c.k), flowPartitionRescan(c.p, c.k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at k=%d: groups %v, the rescan's %v", c.p.Name, c.k, got, want)
		}
		for _, g := range got {
			if len(g) > (c.p.Procs+c.k-1)/c.k {
				fallback++
				break
			}
		}
	}
	if fallback == 0 {
		t.Fatal("no case took the balance fallback")
	}
}

// ingestRing64 runs the request-path passes of a ring-allreduce/64 hier
// request at eight clusters: generate, contention periods, partition, split.
func ingestRing64(tb testing.TB, spec *Spec) {
	p, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if len(model.ContentionPeriods(p)) == 0 {
		tb.Fatal("no contention periods")
	}
	a, err := Partition(p, spec, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := SplitPattern(p, a); err != nil {
		tb.Fatal(err)
	}
}

// TestIngestRing64Allocs holds the ring-allreduce/64 at eight clusters
// request-path passes to an allocation ceiling: 472 when last measured.
// With a fresh flow slice and an fmt.Sprintf label for every ring step they
// made 1,108, most of them the generator's phase specs; the builder's
// per-phase index lists and growing message list, and the partition's
// per-cluster boundary maps, made 2,893 before that.
func TestIngestRing64Allocs(t *testing.T) {
	spec, err := ParseSpec("8")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { ingestRing64(t, spec) })
	const ceiling = 520
	if allocs > ceiling {
		t.Fatalf("the ring-allreduce/64@8 ingest passes made %.0f allocations, ceiling %d", allocs, ceiling)
	}
	t.Logf("%.0f allocations", allocs)
}

func benchmarkPartitionRing64(b *testing.B, partition func(*model.Pattern, int) [][]int) {
	p := ring64(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groupsSink = partition(p, 8)
	}
}

// groupsSink keeps the benchmarked partitions live.
var groupsSink [][]int

// BenchmarkFlowPartitionRing64 and its Reference, the rescanning
// partitioner, are the hier pair of the ingest gate (make bench-ingest).
func BenchmarkFlowPartitionRing64(b *testing.B) { benchmarkPartitionRing64(b, flowPartition) }
func BenchmarkFlowPartitionRing64Reference(b *testing.B) {
	benchmarkPartitionRing64(b, flowPartitionRescan)
}
