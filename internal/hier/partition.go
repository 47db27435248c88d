package hier

import (
	"fmt"
	"sort"

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
	// Canonical cluster order; carry explicit gateway lists along.
	order := make([]int, len(clusters))
	for i := range order {
		order[i] = i
	}
	sorted := make([][]int, len(clusters))
	for i, members := range clusters {
		sorted[i] = dedupSorted(members)
		if len(sorted[i]) == 0 {
			return nil, specErrf(spec.Canonical(), "cluster %d is empty", i)
		}
	}
	sort.Slice(order, func(i, j int) bool { return sorted[order[i]][0] < sorted[order[j]][0] })
	ordClusters := make([][]int, len(order))
	ordGateways := make([][]int, len(order))
	for i, o := range order {
		ordClusters[i] = sorted[o]
		if gateways != nil {
			ordGateways[i] = gateways[o]
		}
	}
	a, err := NewAssignment(p.Procs, ordClusters, nil)
	if err != nil {
		if se, ok := err.(*SpecError); ok && se.Spec == "" {
			se.Spec = spec.Canonical()
		}
		return nil, err
	}
	fillGateways(a, p, ordGateways, maxGateways)
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
	boundary := make([]map[int]bool, len(a.Clusters))
	for c := range boundary {
		boundary[c] = make(map[int]bool)
	}
	for _, m := range p.Messages {
		if a.Of[m.Src] != a.Of[m.Dst] {
			boundary[a.Of[m.Src]][m.Src] = true
			boundary[a.Of[m.Dst]][m.Dst] = true
		}
	}
	for c, members := range a.Clusters {
		gws := explicit[c]
		if len(gws) == 0 {
			for _, q := range members {
				if boundary[c][q] {
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
// toward the smallest representative members, so the result is deterministic.
func flowPartition(p *model.Pattern, k int) [][]int {
	n := p.Procs
	groups := make([][]int, n)
	for q := 0; q < n; q++ {
		groups[q] = []int{q}
	}
	// weight is the dense symmetric n×n matrix of pair weights: the merge
	// scan reads it O(groups²·|gi|·|gj|) times per merge.
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
	groupWeight := func(i, j int) int64 {
		var w int64
		for _, u := range groups[i] {
			row := weight[u*n : (u+1)*n]
			for _, v := range groups[j] {
				w += row[v]
			}
		}
		return w
	}
	merge := func(i, j int) {
		groups[i] = dedupSorted(append(groups[i], groups[j]...))
		groups = append(groups[:j], groups[j+1:]...)
	}
	for len(groups) > k {
		bestI, bestJ := -1, -1
		var bestW int64 = -1
		bestSize := 0
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				size := len(groups[i]) + len(groups[j])
				if size > sizeCap {
					continue
				}
				w := groupWeight(i, j)
				if w > bestW || (w == bestW && size < bestSize) {
					bestI, bestJ, bestW, bestSize = i, j, w, size
				}
			}
		}
		if bestI < 0 {
			// No pair fits the cap (possible when sizes fragment
			// unevenly): merge the two smallest groups regardless.
			for i := 0; i < len(groups); i++ {
				for j := i + 1; j < len(groups); j++ {
					size := len(groups[i]) + len(groups[j])
					if bestI < 0 || size < bestSize {
						bestI, bestJ, bestSize = i, j, size
					}
				}
			}
		}
		merge(bestI, bestJ)
	}
	return groups
}
