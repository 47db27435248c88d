package hier

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Assignment is a concrete clustering of a pattern's processors: the cluster
// member lists, the per-cluster gateway processors that carry inter-cluster
// traffic, and the derived lookup tables the splitter and flattener use.
//
// Clusters are ordered by their smallest member and each member list is
// ascending, so an Assignment built from the same pattern and spec is
// deterministic. Gateway processors are always members of their cluster and
// double as NoI endpoints: NoI processor IDs are assigned densely, cluster by
// cluster, gateway by gateway.
type Assignment struct {
	Procs    int
	Clusters [][]int
	Gateways [][]int
	// Of maps a processor to its cluster index; Local to its position
	// within the cluster (the chiplet-level processor ID).
	Of    []int
	Local []int
	// NoIID maps a gateway processor to its NoI endpoint ID (-1 for
	// non-gateways); NoIProcs is the NoI endpoint count.
	NoIID    []int
	NoIProcs int
}

// NewAssignment validates cluster and gateway lists against a processor
// count and builds the derived tables. Clusters must partition [0, procs)
// exactly; every gateway must be a member of its cluster. All rejections are
// *SpecError (the lists usually originate from a spec or a serialized
// design).
func NewAssignment(procs int, clusters, gateways [][]int) (*Assignment, error) {
	if procs <= 0 {
		return nil, specErrf("", "pattern has %d processors", procs)
	}
	if len(clusters) == 0 {
		return nil, specErrf("", "no clusters")
	}
	if gateways != nil && len(gateways) != len(clusters) {
		return nil, specErrf("", "%d gateway lists for %d clusters", len(gateways), len(clusters))
	}
	// The tables below are sized by procs, which in a serialized design is a
	// bare number; the lists are as long as the document that held them. A
	// partition of [0, procs) has exactly procs members, so count first.
	members := 0
	for _, c := range clusters {
		members += len(c)
	}
	if members != procs {
		return nil, specErrf("", "clusters hold %d members for %d processors", members, procs)
	}
	a := &Assignment{
		Procs:    procs,
		Clusters: make([][]int, len(clusters)),
		Gateways: make([][]int, len(clusters)),
		Of:       make([]int, procs),
		Local:    make([]int, procs),
		NoIID:    make([]int, procs),
	}
	for i := range a.Of {
		a.Of[i] = -1
		a.NoIID[i] = -1
	}
	for c, members := range clusters {
		if len(members) == 0 {
			return nil, specErrf("", "cluster %d is empty", c)
		}
		sorted := dedupSorted(members)
		if len(sorted) != len(members) {
			return nil, specErrf("", "cluster %d repeats a member", c)
		}
		for l, p := range sorted {
			if p < 0 || p >= procs {
				return nil, specErrf("", "cluster %d member %d out of range [0,%d)", c, p, procs)
			}
			if a.Of[p] != -1 {
				return nil, specErrf("", "processor %d in clusters %d and %d", p, a.Of[p], c)
			}
			a.Of[p] = c
			a.Local[p] = l
		}
		a.Clusters[c] = sorted
	}
	// procs members, all in range and none twice: every processor is covered.

	// Clusters must be presented in canonical order (ascending smallest
	// member) so serialized assignments round-trip byte-identically.
	for c := 1; c < len(a.Clusters); c++ {
		if a.Clusters[c][0] < a.Clusters[c-1][0] {
			return nil, specErrf("", "clusters %d and %d out of canonical order", c-1, c)
		}
	}
	for c, gws := range gateways {
		sorted := dedupSorted(gws)
		for _, g := range sorted {
			if g < 0 || g >= procs || a.Of[g] != c {
				return nil, specErrf("", "gateway %d is not a member of cluster %d", g, c)
			}
			a.NoIID[g] = a.NoIProcs
			a.NoIProcs++
		}
		a.Gateways[c] = sorted
	}
	return a, nil
}

// Partition applies a spec to a pattern, producing a deterministic
// Assignment. For ModeFlow and ModeBlocks the gateway set of each cluster
// defaults to its boundary processors — members that are an endpoint of at
// least one inter-cluster message — optionally capped at maxGateways per
// cluster (0 = uncapped). Boundary gateways are what make per-level
// contention freedom reachable: an inter-cluster flow whose endpoints are
// both gateways needs no intra-chiplet forwarding leg, so the NoI inherits
// the original pattern's endpoint distinctness. Explicit "@" gateway lists
// are used as written.
func Partition(p *model.Pattern, spec *Spec, maxGateways int) (*Assignment, error) {
	if spec == nil {
		return nil, specErrf("", "nil spec")
	}
	if maxGateways < 0 {
		return nil, fmt.Errorf("hier: negative MaxGateways %d", maxGateways)
	}
	var clusters [][]int
	var gateways [][]int
	switch spec.Mode {
	case ModeBlocks:
		if spec.K > p.Procs {
			return nil, specErrf(spec.Canonical(), "%d clusters for %d processors", spec.K, p.Procs)
		}
		for c := 0; c < spec.K; c++ {
			lo, hi := c*p.Procs/spec.K, (c+1)*p.Procs/spec.K
			block := make([]int, 0, hi-lo)
			for q := lo; q < hi; q++ {
				block = append(block, q)
			}
			clusters = append(clusters, block)
		}
	case ModeFlow:
		if spec.K > p.Procs {
			return nil, specErrf(spec.Canonical(), "%d clusters for %d processors", spec.K, p.Procs)
		}
		clusters = flowPartition(p, spec.K)
	case ModeExplicit:
		clusters = spec.Groups
		gateways = spec.GroupGateways
	default:
		return nil, specErrf(spec.Canonical(), "unknown partition mode %d", int(spec.Mode))
	}
	// Every mode's clusters come out canonical (ParseSpec orders explicit
	// groups; flow and blocks clusters ascend by slot); NewAssignment
	// rejects any that are not.
	a, err := NewAssignment(p.Procs, clusters, nil)
	if err != nil {
		if se, ok := err.(*SpecError); ok && se.Spec == "" {
			se.Spec = spec.Canonical()
		}
		return nil, err
	}
	fillGateways(a, p, gateways, maxGateways)
	return a, nil
}

// fillGateways assigns each cluster's gateway set: the explicit list when
// given, otherwise the boundary processors (capped at maxGateways, keeping
// the lowest IDs), falling back to the first member so every chiplet stays
// attached to the NoI even when it exchanges nothing today.
func fillGateways(a *Assignment, p *model.Pattern, explicit [][]int, maxGateways int) {
	if len(a.Clusters) == 1 {
		return // single cluster: no NoI level, no gateways
	}
	// boundary[q]: processor q is an endpoint of an inter-cluster message.
	boundary := make([]bool, a.Procs)
	for _, m := range p.Messages {
		if a.Of[m.Src] != a.Of[m.Dst] {
			boundary[m.Src] = true
			boundary[m.Dst] = true
		}
	}
	for c, members := range a.Clusters {
		var gws []int
		if explicit != nil {
			gws = explicit[c]
		}
		if len(gws) == 0 {
			for _, q := range members {
				if boundary[q] {
					gws = append(gws, q)
				}
			}
			if maxGateways > 0 && len(gws) > maxGateways {
				gws = gws[:maxGateways]
			}
			if len(gws) == 0 {
				gws = []int{members[0]}
			}
		}
		a.Gateways[c] = dedupSorted(gws)
	}
	for _, gws := range a.Gateways {
		for _, g := range gws {
			a.NoIID[g] = a.NoIProcs
			a.NoIProcs++
		}
	}
}

// flowPartition greedily agglomerates the flow graph into k groups: starting
// from singletons, repeatedly merge the pair of groups exchanging the most
// bytes whose union respects the ceil(N/k) size cap; when no weighted merge
// fits, merge the two smallest groups (the balance fallback). Ties break
// toward the smaller union, then the smallest representative members, so
// the result is deterministic.
//
// Groups live in slots: group q starts in slot q, and a merge folds the later
// slot into the earlier one, so the live slots stay ascending. weight is the
// dense symmetric matrix of slot-pair weights, the processor-pair weights to
// begin with, and a merge adds the folded slot's row and column into the
// survivor's. best[a] caches row a's best partner; a merge rescans only the
// rows it can have changed, so a partition is O(N²) in the common case
// rather than O(N⁴) summing every pair's members on every scan.
func flowPartition(p *model.Pattern, k int) [][]int {
	n := p.Procs
	groups := make([][]int, n)
	size := make([]int, n)
	live := make([]int, n) // the groups' slots, ascending
	for q := 0; q < n; q++ {
		groups[q] = []int{q}
		size[q] = 1
		live[q] = q
	}
	weight := make([]int64, n*n)
	for _, m := range p.Messages {
		if m.Src == m.Dst {
			continue
		}
		w := int64(m.Bytes) + 1 // +1 so zero-byte messages still attract
		weight[m.Src*n+m.Dst] += w
		weight[m.Dst*n+m.Src] += w
	}
	sizeCap := (n + k - 1) / k
	// fits reports whether slots a and b may merge by weight: their union
	// is within the cap and their weight is not negative (one that is never
	// beats the scan's starting bound of −1).
	fits := func(a, b int) bool { return size[a]+size[b] <= sizeCap && weight[a*n+b] >= 0 }
	// heavier reports whether pair (a, b) ranks above pair (c, d): more
	// weight, then the smaller union.
	heavier := func(a, b, c, d int) bool {
		wab, wcd := weight[a*n+b], weight[c*n+d]
		return wab > wcd || wab == wcd && size[a]+size[b] < size[c]+size[d]
	}
	// best[a] is the partner b > a of a's best fitting pair, the lowest
	// such slot among equals; -1 when none fits.
	best := make([]int, n)
	scanRow := func(i int) {
		a := live[i]
		best[a] = -1
		for _, b := range live[i+1:] {
			if fits(a, b) && (best[a] < 0 || heavier(a, b, a, best[a])) {
				best[a] = b
			}
		}
	}
	for i := range live {
		scanRow(i)
	}
	for len(live) > k {
		bi, bj := -1, -1
		for i, a := range live {
			if b := best[a]; b >= 0 && (bi < 0 || heavier(a, b, live[bi], best[live[bi]])) {
				bi = i
			}
		}
		if bi >= 0 {
			bj, _ = slices.BinarySearch(live, best[live[bi]])
		} else {
			// No pair fits the cap (possible when sizes fragment
			// unevenly): merge the two smallest groups regardless.
			bestSize := 0
			for i, a := range live {
				for j := i + 1; j < len(live); j++ {
					if sz := size[a] + size[live[j]]; bi < 0 || sz < bestSize {
						bi, bj, bestSize = i, j, sz
					}
				}
			}
		}
		a, b := live[bi], live[bj]
		rowA, rowB := weight[a*n:(a+1)*n], weight[b*n:(b+1)*n]
		for _, c := range live {
			if c != a && c != b {
				rowA[c] += rowB[c]
				weight[c*n+a] = rowA[c]
			}
		}
		groups[a] = dedupSorted(append(groups[a], groups[b]...))
		size[a] += size[b]
		live = slices.Delete(live, bj, bj+1)
		// Only pairs with a changed, and b is gone: rescan a's row and every
		// row whose best partner was a or b, and offer each earlier row its
		// new pair with a.
		for i, c := range live {
			switch {
			case c == a || best[c] == a || best[c] == b:
				scanRow(i)
			case c < a && fits(c, a) && (best[c] < 0 || heavier(c, a, c, best[c]) ||
				!heavier(c, best[c], c, a) && a < best[c]):
				best[c] = a
			}
		}
	}
	out := make([][]int, len(live))
	for i, a := range live {
		out[i] = groups[a]
	}
	return out
}
