package hier

import "repro/internal/model"

// flowPartitionRescan is flowPartition as it was before it kept a matrix of
// group weights: every scan sums each candidate pair's processor-pair
// weights afresh, and a merge shifts the group list. It is the oracle of
// TestFlowPartitionMatchesRescan and the reference side of the ingest gate.
func flowPartitionRescan(p *model.Pattern, k int) [][]int {
	n := p.Procs
	groups := make([][]int, n)
	for q := 0; q < n; q++ {
		groups[q] = []int{q}
	}
	weight := make([]int64, n*n)
	for _, m := range p.Messages {
		if m.Src == m.Dst {
			continue
		}
		w := int64(m.Bytes) + 1
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
