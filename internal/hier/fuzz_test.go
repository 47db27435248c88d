package hier

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
)

// fuzzPattern is a small fixed workload: an 8-processor ring with one
// cross-ring shuffle, enough inter-group traffic that most partitions have a
// non-trivial NoI.
func fuzzPattern() *model.Pattern {
	p := &model.Pattern{Name: "fuzz", Procs: 8}
	for i := 0; i < 8; i++ {
		p.Messages = append(p.Messages, model.Message{
			ID: len(p.Messages), Src: model.Node(i), Dst: model.Node((i + 1) % 8),
			Start: float64(i), Finish: float64(i + 1), Bytes: 64,
		})
		p.Messages = append(p.Messages, model.Message{
			ID: len(p.Messages), Src: model.Node(i), Dst: model.Node((i + 3) % 8),
			Start: float64(i) + 0.5, Finish: float64(i) + 1.5, Bytes: 32,
		})
	}
	return p
}

// FuzzPartition drives the cluster-spec grammar and partitioner with
// arbitrary specs and gateway caps. The contract on every input: no panics;
// rejections are always typed *SpecError; every accepted spec yields an
// exact partition (each processor in exactly one cluster, lookup tables
// consistent, gateways members of their clusters with dense NoI IDs); and
// Canonical() of an accepted spec reparses to the same canonical form.
func FuzzPartition(f *testing.F) {
	seeds := []string{
		"4", "flow:2", "flow:8", "blocks:3", "blocks:1",
		"0-3;4-7", "0-3@1;4-7@6", "0,2,4,6;1,3,5,7", "0-6;7",
		"0-7", "7,6,5,4,3,2,1,0",
		// Malformed: must be rejected with *SpecError, never panic.
		"", "flow:0", "blocks:9", "flow:-1", "0-3", "0-3;3-7", "0-3;4-9",
		"0-3@9;4-7", "x", "0-3;;4-7", "1-0", "0-99999999999", "@", ";",
		"flow:4;0-3", "blocks:2@1",
		// Group order is a spelling; the spec budget covers the whole spec.
		"4-7@7;0-3", "0-3;4-7@7", wideSpec, "0-65535", "0-65535@0-65535",
	}
	for _, s := range seeds {
		f.Add(s, 0)
		f.Add(s, 1)
	}
	f.Fuzz(func(t *testing.T, spec string, maxGateways int) {
		if len(spec) > 256 {
			return // bound parse cost; long inputs add nothing structural
		}
		sp, err := ParseSpec(spec)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseSpec(%q): error %T is not *SpecError: %v", spec, err, err)
			}
			return
		}
		canon := sp.Canonical()
		sp2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("Canonical %q of accepted spec %q does not reparse: %v", canon, spec, err)
		}
		if got := sp2.Canonical(); got != canon {
			t.Fatalf("Canonical not a fixed point: %q → %q", canon, got)
		}

		p := fuzzPattern()
		cap := maxGateways % 5
		if cap < 0 {
			cap = -cap
		}
		a, err := Partition(p, sp, cap)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Partition(%q): error %T is not *SpecError: %v", spec, err, err)
			}
			return
		}
		fuzzCheckAssignment(t, spec, sp, p.Procs, a, cap)
	})
}

// fuzzCheckAssignment is checkAssignment restated with Fatalf context for the
// fuzzer (no testing helper marks inside f.Fuzz bodies).
func fuzzCheckAssignment(t *testing.T, spec string, sp *Spec, procs int, a *Assignment, maxGateways int) {
	if a.Procs != procs {
		t.Fatalf("%q: Procs=%d, want %d", spec, a.Procs, procs)
	}
	seen := make(map[int]bool)
	for c, members := range a.Clusters {
		if len(members) == 0 {
			t.Fatalf("%q: cluster %d empty", spec, c)
		}
		for l, p := range members {
			if p < 0 || p >= procs {
				t.Fatalf("%q: processor %d out of range", spec, p)
			}
			if seen[p] {
				t.Fatalf("%q: processor %d in two clusters", spec, p)
			}
			seen[p] = true
			if a.Of[p] != c || a.Local[p] != l {
				t.Fatalf("%q: processor %d Of/Local inconsistent", spec, p)
			}
			if l > 0 && members[l-1] >= p {
				t.Fatalf("%q: cluster %d not ascending: %v", spec, c, members)
			}
		}
	}
	if len(seen) != procs {
		t.Fatalf("%q: %d processors assigned, want %d", spec, len(seen), procs)
	}
	noi := 0
	for c, gws := range a.Gateways {
		// An "@" list is used as written; the cap bounds only the default
		// (boundary) gateway sets. Clusters keep the spec's group order.
		if sp.Mode == ModeExplicit && len(a.Clusters) > 1 && len(sp.GroupGateways[c]) > 0 {
			if !slices.Equal(gws, sp.GroupGateways[c]) {
				t.Fatalf("%q: cluster %d gateways %v, spec wrote %v", spec, c, gws, sp.GroupGateways[c])
			}
		} else if maxGateways > 0 && len(gws) > maxGateways {
			t.Fatalf("%q: cluster %d has %d gateways over cap %d", spec, c, len(gws), maxGateways)
		}
		if len(a.Clusters) > 1 && len(gws) == 0 {
			t.Fatalf("%q: cluster %d has no gateway in a multi-cluster partition", spec, c)
		}
		for _, g := range gws {
			if a.Of[g] != c {
				t.Fatalf("%q: gateway %d not in cluster %d", spec, g, c)
			}
			if a.NoIID[g] != noi {
				t.Fatalf("%q: gateway %d NoI ID %d, want %d", spec, g, a.NoIID[g], noi)
			}
			noi++
		}
	}
	if noi != a.NoIProcs {
		t.Fatalf("%q: NoIProcs=%d, want %d", spec, a.NoIProcs, noi)
	}
	// Lightly exercise the split on accepted partitions too: conservation
	// must hold for any valid clustering.
	s, err := SplitPattern(fuzzPattern(), a)
	if err != nil {
		t.Fatalf("%q: SplitPattern: %v", spec, err)
	}
	inter := 0
	for _, m := range fuzzPattern().Messages {
		if a.Of[m.Src] != a.Of[m.Dst] {
			inter++
		}
	}
	if len(a.Clusters) > 1 && len(s.NoI.Messages) != inter {
		t.Fatalf("%q: %d NoI messages for %d inter-cluster messages", spec, len(s.NoI.Messages), inter)
	}
}

// hugeProcsDesign is a 135-byte document that made LoadDesign allocate 1.1 GB:
// the assignment tables were sized from "procs" before anything compared it
// with the one processor the clusters hold.
const hugeProcsDesign = `{"schema":"hier-design","version":1,"procs":50000000,"clusters":[[0]],` +
	`"gateways":[],"gateway_width":1,"noi_link_delay":2,"chiplets":[]}`

func TestLoadDesignBoundsProcs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadDesign(strings.NewReader(hugeProcsDesign))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("LoadDesign accepted 50,000,000 processors in one single-member cluster")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("LoadDesign allocated %d bytes rejecting a %d-byte document (%v)", got, len(hugeProcsDesign), err)
	}
}

// FuzzHierLoadDesign feeds arbitrary bytes to the hier-design loader, which
// reads documents `netgen -clusters -o` and the server hand out. It must never
// panic, and a design it accepts must save to bytes that load and save again
// unchanged.
func FuzzHierLoadDesign(f *testing.F) {
	opt := hierOptions(0)
	spec, err := ParseSpec("flow:4")
	if err != nil {
		f.Fatal(err)
	}
	opt.Spec = spec
	for _, cell := range goldenCells {
		d, err := Synthesize(cell.pat(f), opt)
		if err != nil {
			f.Fatal(err)
		}
		var saved bytes.Buffer
		if err := SaveDesign(&saved, d); err != nil {
			f.Fatal(err)
		}
		f.Add(saved.Bytes())
		f.Add(saved.Bytes()[:saved.Len()/2])
	}
	f.Add([]byte(hugeProcsDesign))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := LoadDesign(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := SaveDesign(&first, d); err != nil {
			t.Fatalf("saving an accepted design: %v", err)
		}
		d, err = LoadDesign(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved design: %v\n%s", err, first.Bytes())
		}
		if err := SaveDesign(&second, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("load → save is not a fixed point:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
