package serve

import (
	"sync"

	"repro/internal/synth"
	"repro/internal/trace"
)

// DefaultWarmThreshold is the structural-distance ceiling for warm-start
// seeding: a cached design seeds a new request only when the two traces'
// fingerprints are closer than this. 0.4 admits size/phase variants of the
// same application (distance ≈ 0) and near-miss schedule prefixes (e.g. a
// reduce-scatter against a cached ring-allreduce) while rejecting unrelated
// workloads, whose clique multisets share almost nothing (distance ≳ 0.7).
const DefaultWarmThreshold = 0.4

// warmEntry is one nearest-design candidate: the structural fingerprint of a
// cached design's trace plus the seed extracted from that design.
type warmEntry struct {
	key  string
	fp   *trace.Fingerprint
	seed *synth.SeedDesign
}

// warmIndex is the nearest-design store: a secondary index from structural
// trace fingerprints to cached design keys, layered on the content-addressed
// LRU. An exact-key miss consults it for the structurally nearest cached
// design; within the distance threshold, that design seeds the synthesis
// (synth.Options.SeedDesign) instead of a cold start. Entries track the LRU
// strictly: added when a design is stored, removed when its key is evicted —
// so the index never outgrows the cache and never seeds from a design the
// server no longer holds.
//
// Determinism note: the exact-key cache still replays byte-identical
// responses — a warm-started response is stored under the request's own key
// and served verbatim forever after. Across server instances (or restart
// orders), however, the same request may synthesize seeded on one and cold
// on the other, yielding different — equally valid, never worse than the
// cold path on quality-gated traces — bytes. Deployments that need
// cross-instance byte equality disable warm starts (WarmThreshold < 0).
type warmIndex struct {
	mu        sync.Mutex
	threshold float64
	m         map[string]*warmEntry
}

func newWarmIndex(threshold float64) *warmIndex {
	if threshold < 0 {
		return nil // disabled: every method tolerates a nil receiver
	}
	if threshold == 0 {
		threshold = DefaultWarmThreshold
	}
	return &warmIndex{threshold: threshold, m: make(map[string]*warmEntry)}
}

func (w *warmIndex) add(key string, fp *trace.Fingerprint, seed *synth.SeedDesign) {
	if w == nil || fp == nil || seed == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.m[key] = &warmEntry{key: key, fp: fp, seed: seed}
}

func (w *warmIndex) remove(keys ...string) {
	if w == nil || len(keys) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, k := range keys {
		delete(w.m, k)
	}
}

// nearest returns the closest indexed design within the threshold. Linear
// scan: the index is bounded by the LRU capacity (default 128) and Distance
// is a cheap merge over pre-sorted signatures, so a scan costs microseconds —
// far below the synthesis it may replace. Ties break toward the smaller key
// so the lookup is deterministic for a given index state.
func (w *warmIndex) nearest(fp *trace.Fingerprint) (*warmEntry, float64, bool) {
	if w == nil || fp == nil {
		return nil, 0, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var best *warmEntry
	bestDist := 0.0
	for _, e := range w.m {
		d := fp.Distance(e.fp)
		if d > w.threshold {
			continue
		}
		if best == nil || d < bestDist || (d == bestDist && e.key < best.key) {
			best, bestDist = e, d
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return best, bestDist, true
}
