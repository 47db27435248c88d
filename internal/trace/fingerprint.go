package trace

import (
	"math/bits"
	"sort"

	"repro/internal/model"
)

// FingerprintVersion identifies the structural-fingerprint layout. Bump on
// any change to the hashing scheme — stored fingerprints from different
// versions never compare equal, so a bump silently turns warm-start lookups
// cold instead of mis-seeding them.
const FingerprintVersion = 1

// Fingerprint is a structural summary of a communication pattern, derived
// entirely from its clique/conflict structure: the maximum clique set
// (contention periods), per-flow clique membership counts, and per-processor
// traffic signatures. It is invariant to flow and message reordering, to
// message payload sizes, and to any timeline change that preserves which
// flows overlap — exactly the differences between two size/phase variants of
// the same application. Two traces with the same fingerprint present the
// same synthesis problem (the synthesizer consumes only procs + cliques), so
// a design for one warm-starts the other perfectly.
type Fingerprint struct {
	Version int `json:"version"`
	Procs   int `json:"procs"`
	Flows   int `json:"flows"`
	Cliques int `json:"cliques"`
	// DegreeHist buckets processors by log2(flow degree): DegreeHist[k]
	// counts processors whose incident-flow count has bit length k
	// (capped at the last bucket).
	DegreeHist [9]int `json:"degree_hist"`
	// Segments holds one structural hash per processor — its traffic
	// signature: the multiset of (peer, direction, clique-membership
	// count) over its incident flows. A processor whose segment matches
	// between two traces has identical local contention structure, so a
	// seed design's placement for it can be replayed verbatim.
	Segments []uint64 `json:"segments"`
	// CliqueSigs is the sorted multiset of per-clique structural hashes
	// (each over the clique's sorted flow pairs).
	CliqueSigs []uint64 `json:"clique_sigs"`
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func mix64(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime64
	return h
}

// FingerprintPattern computes the structural fingerprint of a pattern. It
// reduces the pattern to its maximum clique set first, so the result depends
// only on contention structure.
func FingerprintPattern(p *model.Pattern) *Fingerprint {
	return FingerprintCliques(p.Procs, model.MaxCliqueSet(p))
}

// FingerprintCliques computes the fingerprint from an already-extracted
// maximum clique set (the synthesizer's own input), avoiding a second sweep
// when the cliques are at hand.
func FingerprintCliques(procs int, cliques []model.Clique) *Fingerprint {
	fp := &Fingerprint{
		Version: FingerprintVersion,
		Procs:   procs,
		Cliques: len(cliques),
	}

	// Per-flow clique-membership counts: how many contention periods each
	// flow participates in. Invariant to clique and flow order.
	periods := make(map[model.Flow]int)
	for _, c := range cliques {
		for _, f := range c {
			periods[f]++
		}
	}
	fp.Flows = len(periods)

	// Per-clique structural hash over the canonical (sorted) flow list.
	fp.CliqueSigs = make([]uint64, 0, len(cliques))
	for _, c := range cliques {
		h := uint64(fnvOffset64)
		h = mix64(h, uint64(len(c)))
		for _, f := range c {
			h = mix64(h, uint64(f.Src))
			h = mix64(h, uint64(f.Dst))
		}
		fp.CliqueSigs = append(fp.CliqueSigs, h)
	}
	sort.Slice(fp.CliqueSigs, func(i, j int) bool { return fp.CliqueSigs[i] < fp.CliqueSigs[j] })

	// Per-processor segments: hash of the sorted multiset of incident-flow
	// descriptors. Sorting makes the segment invariant to flow order.
	flows := model.CliqueFlows(cliques)
	incident := make([][]uint64, procs)
	degree := make([]int, procs)
	for _, f := range flows {
		if f.Src < 0 || f.Src >= procs || f.Dst < 0 || f.Dst >= procs {
			continue
		}
		np := uint64(periods[f])
		out := mix64(mix64(mix64(fnvOffset64, uint64(f.Dst)), 0), np)
		in := mix64(mix64(mix64(fnvOffset64, uint64(f.Src)), 1), np)
		incident[f.Src] = append(incident[f.Src], out)
		degree[f.Src]++
		incident[f.Dst] = append(incident[f.Dst], in)
		degree[f.Dst]++
	}
	fp.Segments = make([]uint64, procs)
	for p := 0; p < procs; p++ {
		hs := incident[p]
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
		h := uint64(fnvOffset64)
		for _, x := range hs {
			h = mix64(h, x)
		}
		fp.Segments[p] = h
		b := bits.Len(uint(degree[p]))
		if b >= len(fp.DegreeHist) {
			b = len(fp.DegreeHist) - 1
		}
		fp.DegreeHist[b]++
	}
	return fp
}

// Equal reports whether two fingerprints are structurally identical.
func (fp *Fingerprint) Equal(other *Fingerprint) bool {
	if fp == nil || other == nil {
		return fp == other
	}
	if fp.Version != other.Version || fp.Procs != other.Procs ||
		fp.Flows != other.Flows || fp.Cliques != other.Cliques ||
		fp.DegreeHist != other.DegreeHist ||
		len(fp.Segments) != len(other.Segments) ||
		len(fp.CliqueSigs) != len(other.CliqueSigs) {
		return false
	}
	for i := range fp.Segments {
		if fp.Segments[i] != other.Segments[i] {
			return false
		}
	}
	for i := range fp.CliqueSigs {
		if fp.CliqueSigs[i] != other.CliqueSigs[i] {
			return false
		}
	}
	return true
}

// Distance measures structural dissimilarity in [0, 1]: 0 for identical
// contention structure, 1 for traces sharing nothing. It blends the Dice
// distance over the clique multisets (the dominant term — cliques are what
// the synthesizer partitions), the fraction of processor segments that
// changed, the degree-histogram L1 distance, and the processor-count
// mismatch. Cheap: one linear merge over the sorted clique signatures.
func (fp *Fingerprint) Distance(other *Fingerprint) float64 {
	if fp == nil || other == nil {
		return 1
	}
	if fp.Version != other.Version {
		return 1
	}
	maxProcs := fp.Procs
	if other.Procs > maxProcs {
		maxProcs = other.Procs
	}
	if maxProcs == 0 {
		return 0
	}
	procDiff := float64(abs(fp.Procs-other.Procs)) / float64(maxProcs)

	segChanged := 0
	for p := 0; p < maxProcs; p++ {
		if p >= len(fp.Segments) || p >= len(other.Segments) ||
			fp.Segments[p] != other.Segments[p] {
			segChanged++
		}
	}
	segDiff := float64(segChanged) / float64(maxProcs)

	cliqueDiff := 1.0
	if total := len(fp.CliqueSigs) + len(other.CliqueSigs); total > 0 {
		common := multisetIntersect(fp.CliqueSigs, other.CliqueSigs)
		cliqueDiff = 1 - 2*float64(common)/float64(total)
	} else {
		cliqueDiff = 0
	}

	degSum, degDiff := 0, 0
	for i := range fp.DegreeHist {
		degSum += fp.DegreeHist[i] + other.DegreeHist[i]
		degDiff += abs(fp.DegreeHist[i] - other.DegreeHist[i])
	}
	degDist := 0.0
	if degSum > 0 {
		degDist = float64(degDiff) / float64(degSum)
	}

	return 0.4*cliqueDiff + 0.35*segDiff + 0.15*degDist + 0.1*procDiff
}

// ChangedSegments returns the processors of this fingerprint whose traffic
// segment differs from (or is absent in) the seed's — the partitions a
// warm-started synthesis must re-optimize. An empty (non-nil) result means
// every processor's local structure is unchanged.
func (fp *Fingerprint) ChangedSegments(seed *Fingerprint) []int {
	changed := []int{}
	for p := 0; p < fp.Procs; p++ {
		if seed == nil || p >= len(seed.Segments) || p >= len(fp.Segments) ||
			fp.Segments[p] != seed.Segments[p] {
			changed = append(changed, p)
		}
	}
	return changed
}

func multisetIntersect(a, b []uint64) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
