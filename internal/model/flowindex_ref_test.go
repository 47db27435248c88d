package model

import (
	"cmp"
	"fmt"
	"slices"
)

// sortAllIndex is FlowIndex as it was before repeated keys were dropped
// ahead of the sort: every flow's key sorted, then compacted, and an ID found
// by binary search over the keys. It is the oracle of
// TestNewFlowIndexMatchesSortAll and the reference side of the ingest gate.
type sortAllIndex struct {
	flows []Flow
	keys  []uint64 // the flows' packed keys, ascending
}

// newFlowIndexSortAll is NewFlowIndex's oracle.
func newFlowIndexSortAll(flows []Flow) *sortAllIndex {
	keys := make([]uint64, 0, len(flows))
	for _, f := range flows {
		if f.Src == f.Dst {
			continue
		}
		k, ok := flowKey(f)
		if !ok {
			panic(fmt.Sprintf("model: flow %v has a node outside [0, 2^32)", f))
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	keys = slices.Clip(slices.Compact(keys))
	fs := make([]Flow, len(keys))
	for i, k := range keys {
		fs[i] = Flow{Src: Node(k >> 32), Dst: Node(uint32(k))}
	}
	return &sortAllIndex{flows: fs, keys: keys}
}

// Flows returns the interned flows in ID order.
func (ix *sortAllIndex) Flows() []Flow { return ix.flows }

// ID returns the dense ID of f and whether f is interned (0 if not).
func (ix *sortAllIndex) ID(f Flow) (int, bool) {
	k, packs := flowKey(f)
	if !packs {
		return 0, false
	}
	id, ok := slices.BinarySearch(ix.keys, k)
	if !ok {
		return 0, false
	}
	return id, true
}

// internSortAll is internMessages through the sort-all index: every
// message's key sorted, then each message's ID found by binary search.
func internSortAll(p *Pattern) ([]Flow, []int32) {
	flows := make([]Flow, len(p.Messages))
	for i, m := range p.Messages {
		flows[i] = m.Flow()
	}
	ix := newFlowIndexSortAll(flows)
	ids := make([]int32, len(p.Messages))
	for i, f := range flows {
		ids[i] = -1
		if id, ok := ix.ID(f); ok {
			ids[i] = int32(id)
		}
	}
	return ix.flows, ids
}

// flowsByMap is Pattern.Flows as it was before it went through keySet: a
// map of the flows seen, then a comparator sort. It is the oracle of
// TestPatternFlowsMatchesMap.
func flowsByMap(p *Pattern) []Flow {
	seen := make(map[Flow]bool)
	var out []Flow
	for _, m := range p.Messages {
		f := m.Flow()
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	slices.SortFunc(out, func(f, g Flow) int {
		return cmp.Or(cmp.Compare(f.Src, g.Src), cmp.Compare(f.Dst, g.Dst))
	})
	return out
}
