package synth

import (
	"math/rand"

	"repro/internal/routing"
	"repro/internal/topology"
)

// PriceEveryTarget makes the candidate scans price every candidate (on): each
// dead switch a relocation or pipe-elimination scan meets, and each candidate
// whose floor already loses. Off, the default, they price only the first dead
// switch and skip a candidate on its floor. It serves the external tests'
// everyTarget reference.
func PriceEveryTarget(on bool) { priceEveryTarget = on }

// AssembleEveryRound makes every round of every restart assemble its design
// and hand fn the round's real degrees (by switch index), network and table;
// nil restores assembling once per restart.
func AssembleEveryRound(fn func(realDeg []int, net *topology.Network, table *routing.Table)) {
	assembleEveryRound = fn
}

// WithoutFlow is withoutFlow for the external tests' drop-one-flow runs.
var WithoutFlow = withoutFlow

// SaveDesignMarshal is the encoding/json oracle of SaveDesign.
var SaveDesignMarshal = saveDesignMarshal

// ShortestPathsMismatch runs shortestPaths and the per-flow bfsPath oracle
// over every ordered pair of adj's nodes, and returns the first pair whose
// paths differ, or "".
func ShortestPathsMismatch(adj [][]int, seed int64) string {
	return shortestPathsMismatch(adj, rand.New(rand.NewSource(seed)))
}
