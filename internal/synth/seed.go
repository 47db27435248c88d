package synth

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
)

// SeedDesign warm-starts synthesis from a prior design's switch tree. Instead
// of bisecting from the root megaswitch, a seeded restart replays the seed's
// processor-to-switch assignment (and, when available, its flow routes) for
// the processors both traces share, re-runs Best_Route and Fast_Color width
// sizing only where the new trace's structure diverges from the seed's, and
// hands the result to the normal partition/refine/finalize machinery — so
// constraint violations introduced by the new trace are still repaired by
// splitting, and the output passes the same formal coloring as a cold run.
//
// Seeding changes where the search starts, never what it accepts: if every
// seeded restart fails the design constraints, SynthesizeCliques' extension
// loop draws cold restarts exactly as it does today, so output quality never
// regresses below the cold path's.
type SeedDesign struct {
	// Assign lists each seed switch's processors, one entry per switch in
	// switch-ID order (entries may be empty — pure-intermediate switches
	// carry flows but no processors). Processors outside the new pattern's
	// range (or repeated) are ignored; processors the seed does not
	// mention join the smallest non-empty replayed group.
	Assign [][]int
	// Routes optionally maps each seed flow to its switch path, expressed
	// in Assign indices. Replayed verbatim for flows whose endpoints kept
	// their seed placement; flows the seed never routed (or whose replay
	// is inconsistent) fall back to their direct path.
	Routes map[model.Flow][]int
	// ChangedProcs optionally lists processors whose structural traffic
	// segment differs between the new trace and the seed's (see
	// trace.Fingerprint.ChangedSegments). Route optimization is re-run
	// only on the switches hosting them. nil means unknown — every
	// partition is re-optimized; an empty non-nil slice means the
	// structure is unchanged and the replayed design is kept as-is.
	ChangedProcs []int
}

// SeedFromDesign extracts a warm-start seed from a synthesized (or loaded)
// design: the switch→processor assignment plus, when table is non-nil, every
// flow's switch path. Returns nil when the network has fewer than two
// switches (a megaswitch seed replays nothing).
func SeedFromDesign(net *topology.Network, table *routing.Table) *SeedDesign {
	if net == nil || len(net.Switches) < 2 {
		return nil
	}
	sd := &SeedDesign{Assign: make([][]int, len(net.Switches))}
	for i, sw := range net.Switches {
		procs := append([]int(nil), sw.Procs...)
		sort.Ints(procs)
		sd.Assign[i] = procs
	}
	if table != nil {
		sd.Routes = make(map[model.Flow][]int, len(table.Routes))
		for f, r := range table.Routes {
			path := make([]int, len(r.Switches))
			for i, sw := range r.Switches {
				path[i] = int(sw)
			}
			sd.Routes[f] = path
		}
	}
	return sd
}

// Fingerprint returns a short stable digest of the seed, for inclusion in
// cache keys: two Options values with different seeds must never collide.
func (sd *SeedDesign) Fingerprint() string {
	if sd == nil {
		return "none"
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	for _, g := range sd.Assign {
		mix(uint64(len(g)))
		for _, p := range g {
			mix(uint64(p))
		}
	}
	mix(0xfeed)
	if sd.Routes != nil {
		flows := make([]model.Flow, 0, len(sd.Routes))
		for f := range sd.Routes {
			flows = append(flows, f)
		}
		sort.Slice(flows, func(i, j int) bool { return flows[i].Less(flows[j]) })
		for _, f := range flows {
			mix(uint64(f.Src))
			mix(uint64(f.Dst))
			for _, g := range sd.Routes[f] {
				mix(uint64(g))
			}
		}
	}
	mix(0xfeed)
	if sd.ChangedProcs == nil {
		mix(0xa11)
	} else {
		for _, p := range sd.ChangedProcs {
			mix(uint64(p))
		}
	}
	return fmt.Sprintf("%016x", h)
}

// applySeed replays the seed's switch tree (and routes) onto a fresh state
// and re-optimizes where the trace changed. Returns false when the seed
// contributes nothing, leaving the state untouched for a cold start.
func (s *state) applySeed(sd *SeedDesign) bool {
	if sd == nil || len(sd.Assign) < 2 {
		return false
	}
	// Filter the seed's groups to this pattern's processors, dropping
	// duplicates; a processor keeps the first group that claims it. Group
	// indices stay aligned with sd.Assign so route replay can map them.
	assigned := make([]bool, s.procs)
	total := 0
	groups := make([][]int, len(sd.Assign))
	for gi, g := range sd.Assign {
		for _, p := range g {
			if p < 0 || p >= s.procs || assigned[p] {
				continue
			}
			assigned[p] = true
			total++
			groups[gi] = append(groups[gi], p)
		}
	}
	if total == 0 {
		return false
	}
	nonEmpty := 0
	for _, g := range groups {
		if len(g) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		// At most one processor-bearing group is just the megaswitch —
		// nothing to replay.
		return false
	}
	// Processors the seed never saw join the smallest non-empty group
	// (lowest index on ties): they are new endpoints, and their switches
	// will be split by partition() if they overload.
	for p := 0; p < s.procs; p++ {
		if assigned[p] {
			continue
		}
		bi := -1
		for gi := range groups {
			if len(groups[gi]) == 0 {
				continue
			}
			if bi == -1 || len(groups[gi]) < len(groups[bi]) {
				bi = gi
			}
		}
		groups[bi] = append(groups[bi], p)
	}

	// Replay the bisection result: group 0 stays on the root switch, each
	// further group becomes a switch one level below it (procless groups
	// are pure intermediates kept alive by the routes replayed below).
	// reattach resets every touched flow to its direct route.
	groupSwitch := make([]int, len(groups))
	for gi := 1; gi < len(groups); gi++ {
		j := len(s.swProcs)
		s.swProcs = append(s.swProcs, nil)
		s.swDepth = append(s.swDepth, 1)
		if s.stats.MaxDepth < 1 {
			s.stats.MaxDepth = 1
		}
		s.growStride(len(s.swProcs))
		groupSwitch[gi] = j
		for _, p := range groups[gi] {
			s.reattach(p, j)
		}
	}

	// Replay the seed's routes for flows whose endpoints kept their seed
	// placement; anything inconsistent stays on its direct path.
	if sd.Routes != nil {
		var buf []int
		for fi, f := range s.flows {
			r, ok := sd.Routes[f]
			if !ok || len(r) == 0 {
				continue
			}
			buf = buf[:0]
			valid := true
			for i, g := range r {
				if g < 0 || g >= len(groupSwitch) {
					valid = false
					break
				}
				sw := groupSwitch[g]
				if i > 0 && buf[len(buf)-1] == sw {
					valid = false
					break
				}
				buf = append(buf, sw)
			}
			if !valid || buf[0] != s.home[f.Src] || buf[len(buf)-1] != s.home[f.Dst] {
				continue
			}
			s.setRoute(fi, s.persistRoute(buf))
		}
	}

	if s.opt.DisableBestRoute {
		return true
	}
	if sd.ChangedProcs != nil && len(sd.ChangedProcs) == 0 && !s.anyViolation() {
		// The new trace's structure is identical to the seed's and the
		// replay satisfies the estimated constraints: the state is the
		// cold path's own fixpoint, so the relocation/swap/merge polish
		// can only rediscover that nothing improves. partition() honors
		// seedFast by skipping globalRefine once.
		s.seedFast = true
		return true
	}
	// Re-run route optimization only on the partitions whose traffic
	// structure changed relative to the seed's trace.
	touch := s.changedSwitches(sd.ChangedProcs)
	if len(touch) > 0 {
		s.bestRoute(touch, nil)
	}
	if s.anyViolation() {
		// The replay left estimated violations (the trace diverged more
		// than the segment diff suggested): fall back to the full route
		// polish before partition() resorts to splitting.
		s.bestRoute(nil, nil)
		s.eliminatePipes()
	}
	return true
}

// changedSwitches maps changed processors to the switches hosting them.
// nil means "unknown" and selects every switch.
func (s *state) changedSwitches(changed []int) []int {
	if changed == nil {
		return s.allSwitches()
	}
	seen := make(map[int]bool, len(changed))
	var sws []int
	for _, p := range changed {
		if p < 0 || p >= s.procs {
			continue
		}
		sw := s.home[p]
		if !seen[sw] {
			seen[sw] = true
			sws = append(sws, sw)
		}
	}
	sort.Ints(sws)
	return sws
}
