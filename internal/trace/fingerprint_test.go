package trace

import (
	"bytes"
	"testing"

	"repro/internal/model"
)

// ringPhases builds one phase per hop-distance with the N ring flows.
func ringPhases(n int, bytes int) []PhaseSpec {
	flows := make([]model.Flow, 0, n)
	for i := 0; i < n; i++ {
		flows = append(flows, model.F(i, (i+1)%n))
	}
	return []PhaseSpec{
		{Label: "ring0", Flows: flows, Bytes: bytes, ComputeAfter: 2},
		{Label: "ring1", Flows: flows, Bytes: bytes * 2},
	}
}

func allToAllPhases(n, bytes int) []PhaseSpec {
	var flows []model.Flow
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				flows = append(flows, model.F(i, j))
			}
		}
	}
	return []PhaseSpec{{Label: "a2a", Flows: flows, Bytes: bytes}}
}

func reverseFlows(phases []PhaseSpec) []PhaseSpec {
	out := make([]PhaseSpec, len(phases))
	for i, ph := range phases {
		flows := make([]model.Flow, len(ph.Flows))
		for j, f := range ph.Flows {
			flows[len(flows)-1-j] = f
		}
		ph.Flows = flows
		out[i] = ph
	}
	return out
}

func TestFingerprintPermutationInvariance(t *testing.T) {
	base := BuildPhased("ring", 8, ringPhases(8, 256))
	perm := BuildPhased("ring", 8, reverseFlows(ringPhases(8, 256)))
	fa, fb := FingerprintPattern(base), FingerprintPattern(perm)
	if !fa.Equal(fb) {
		t.Fatalf("fingerprint not invariant under flow permutation:\n%+v\n%+v", fa, fb)
	}
	if d := fa.Distance(fb); d != 0 {
		t.Fatalf("distance between permuted patterns = %g, want 0", d)
	}
}

func TestFingerprintByteScaleInvariance(t *testing.T) {
	// Scaling payload bytes (and with them phase durations) preserves the
	// overlap structure — phases remain sequential — so the fingerprint
	// must not change: it sees structure, not raw bytes.
	small := BuildPhased("ring", 8, ringPhases(8, 64))
	big := BuildPhased("ring", 8, ringPhases(8, 4096))
	fa, fb := FingerprintPattern(small), FingerprintPattern(big)
	if !fa.Equal(fb) {
		t.Fatalf("fingerprint changed under byte scaling:\n%+v\n%+v", fa, fb)
	}
}

func TestFingerprintDistinctStructures(t *testing.T) {
	ring := FingerprintPattern(BuildPhased("ring", 8, ringPhases(8, 256)))
	a2a := FingerprintPattern(BuildPhased("a2a", 8, allToAllPhases(8, 256)))
	if ring.Equal(a2a) {
		t.Fatal("ring and all-to-all produced equal fingerprints")
	}
	if d := ring.Distance(a2a); d < 0.3 {
		t.Fatalf("ring vs all-to-all distance = %g, want >= 0.3", d)
	}
}

func TestFingerprintDistanceProperties(t *testing.T) {
	ring := FingerprintPattern(BuildPhased("ring", 8, ringPhases(8, 256)))
	a2a := FingerprintPattern(BuildPhased("a2a", 8, allToAllPhases(8, 256)))
	if d := ring.Distance(ring); d != 0 {
		t.Fatalf("self distance = %g, want 0", d)
	}
	d1, d2 := ring.Distance(a2a), a2a.Distance(ring)
	if d1 != d2 {
		t.Fatalf("distance not symmetric: %g vs %g", d1, d2)
	}
	if d1 < 0 || d1 > 1 {
		t.Fatalf("distance %g out of [0,1]", d1)
	}
	if d := ring.Distance(nil); d != 1 {
		t.Fatalf("distance to nil = %g, want 1", d)
	}
}

func TestFingerprintChangedSegments(t *testing.T) {
	base := FingerprintPattern(BuildPhased("ring", 8, ringPhases(8, 256)))
	same := FingerprintPattern(BuildPhased("ring", 8, reverseFlows(ringPhases(8, 256))))
	if ch := same.ChangedSegments(base); ch == nil || len(ch) != 0 {
		t.Fatalf("identical structure: ChangedSegments = %v, want empty non-nil", ch)
	}

	// Reroute one flow: 0->1 becomes 0->2. Processors 0 (source of the
	// changed flow), 1 (lost a receive) and 2 (gained one) change; the
	// rest keep their segment.
	phases := ringPhases(8, 256)
	for i := range phases {
		for j, f := range phases[i].Flows {
			if f == model.F(0, 1) {
				phases[i].Flows[j] = model.F(0, 2)
			}
		}
	}
	moved := FingerprintPattern(BuildPhased("ring", 8, phases))
	ch := moved.ChangedSegments(base)
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(ch) != len(want) {
		t.Fatalf("ChangedSegments = %v, want procs 0,1,2", ch)
	}
	for _, p := range ch {
		if !want[p] {
			t.Fatalf("ChangedSegments = %v contains unexpected proc %d", ch, p)
		}
	}

	if ch := base.ChangedSegments(nil); len(ch) != base.Procs {
		t.Fatalf("ChangedSegments(nil) = %v, want all %d procs", ch, base.Procs)
	}
}

func TestFingerprintCliquesMatchesPattern(t *testing.T) {
	p := BuildPhased("ring", 8, ringPhases(8, 256))
	direct := FingerprintCliques(p.Procs, model.MaxCliqueSet(p))
	viaPattern := FingerprintPattern(p)
	if !direct.Equal(viaPattern) {
		t.Fatalf("FingerprintCliques disagrees with FingerprintPattern:\n%+v\n%+v", direct, viaPattern)
	}
}

func TestFingerprintCodecRoundTrip(t *testing.T) {
	p := BuildPhased("ring", 8, ringPhases(8, 256))
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !FingerprintPattern(p).Equal(FingerprintPattern(q)) {
		t.Fatal("fingerprint changed across codec round-trip")
	}
}

// fuzzPattern derives a bounded phased pattern from raw fuzz bytes: byte 0
// picks the processor count, then each 3-byte chunk contributes one flow and
// a phase-break/size bit. Returns the phases so callers can permute them.
func fuzzPattern(data []byte) (int, []PhaseSpec) {
	if len(data) == 0 {
		return 2, nil
	}
	procs := 2 + int(data[0])%15
	var phases []PhaseSpec
	cur := PhaseSpec{Label: "p0"}
	seen := map[model.Flow]bool{}
	flush := func() {
		if len(cur.Flows) > 0 {
			phases = append(phases, cur)
		}
		cur = PhaseSpec{Label: "p", ComputeAfter: float64(len(phases) % 3)}
		seen = map[model.Flow]bool{}
	}
	data = data[1:]
	for i := 0; i+2 < len(data) && len(phases) < 12; i += 3 {
		src := int(data[i]) % procs
		dst := int(data[i+1]) % procs
		if src == dst {
			continue
		}
		f := model.F(src, dst)
		if data[i+2]&1 == 1 {
			flush()
		}
		cur.Bytes = 32 + int(data[i+2])
		if !seen[f] {
			seen[f] = true
			cur.Flows = append(cur.Flows, f)
		}
		if len(cur.Flows) >= 10 {
			flush()
		}
	}
	flush()
	return procs, phases
}

func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{8, 0, 1, 0, 1, 2, 0, 2, 3, 1})
	f.Add([]byte{16, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0})
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		procs, phases := fuzzPattern(data)
		base := BuildPhased("fuzz", procs, phases)
		fp := FingerprintPattern(base)

		// Invariance under flow permutation within each phase.
		perm := BuildPhased("fuzz", procs, reverseFlows(phases))
		if !fp.Equal(FingerprintPattern(perm)) {
			t.Fatal("fingerprint not invariant under flow permutation")
		}

		// Invariance under payload scaling (structure preserved).
		scaled := make([]PhaseSpec, len(phases))
		copy(scaled, phases)
		for i := range scaled {
			scaled[i].Bytes *= 7
		}
		if !fp.Equal(FingerprintPattern(BuildPhased("fuzz", procs, scaled))) {
			t.Fatal("fingerprint not invariant under payload scaling")
		}

		// Stability across a codec round-trip.
		var buf bytes.Buffer
		if err := Encode(&buf, base); err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !fp.Equal(FingerprintPattern(dec)) {
			t.Fatal("fingerprint changed across codec round-trip")
		}

		// Distance is a self-consistent metric-ish score.
		if d := fp.Distance(fp); d != 0 {
			t.Fatalf("self distance %g != 0", d)
		}
	})
}
