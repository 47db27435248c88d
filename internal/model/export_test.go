package model

import (
	"cmp"
	"slices"
)

// ContentionPeriodsSortFunc is ContentionPeriods with each event list sorted
// by slices.SortFunc on cmp.Compare of the times, as it was before the radix
// sort: the oracle of TestContentionPeriodsMatchComparatorSort.
func ContentionPeriodsSortFunc(p *Pattern) []Clique {
	return contentionPeriods(p, func(evs, buf []periodEvent) []periodEvent {
		slices.SortFunc(evs, func(a, b periodEvent) int { return cmp.Compare(a.t, b.t) })
		return buf
	})
}
