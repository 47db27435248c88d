package model

import (
	"cmp"
	"slices"
)

// ContentionPeriodsSortFunc is ContentionPeriods with each event list sorted
// by slices.SortFunc on cmp.Compare of the times, as it was before the radix
// sort: the oracle of TestContentionPeriodsMatchComparatorSort.
func ContentionPeriodsSortFunc(p *Pattern) []Clique {
	return contentionPeriods(p, internMessages, func(evs, buf []periodEvent) []periodEvent {
		slices.SortFunc(evs, func(a, b periodEvent) int { return cmp.Compare(a.t, b.t) })
		return buf
	})
}

// NewFlowIndexSortAll and FlowsByMap expose the interning oracles to the
// package's external tests.
var (
	NewFlowIndexSortAll = newFlowIndexSortAll
	FlowsByMap          = flowsByMap
)

// ContentionPeriodsSortAll is ContentionPeriods with the messages' flows
// interned by the sort-all index, as it was before repeated keys were
// dropped first: the reference side of the ingest gate.
func ContentionPeriodsSortAll(p *Pattern) []Clique {
	return contentionPeriods(p, internSortAll, sortByTime)
}

// InternMessages and InternSortAll expose the message interning and its
// oracle to the package's external tests.
var (
	InternMessages = internMessages
	InternSortAll  = internSortAll
)
