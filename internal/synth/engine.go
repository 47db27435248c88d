package synth

import (
	"math/rand"
	"sync"

	"repro/internal/model"
)

// This file is the allocation-free incremental move engine: the raw mutators
// that keep the count tables exact, an undo journal for the one scope that
// still applies before it decides (a merge attempt), a per-state route arena
// (replacing per-move route copies), and a state pool that recycles every
// matrix and scratch buffer across restarts.
//
// Contract (see DESIGN.md §13):
//
//   - Candidates are priced by the what-if evaluator (whatif.go), which
//     mutates nothing; only a winner reaches the mutators here.
//   - All pipe/placement mutations go through setRoute/reattachNoReroute.
//     With no probe open a mutation is a commit and leaves no record. Inside
//     one (between beginProbe and rollback/keep) it is journaled first.
//     Only mergeRefine opens one, so scopes never nest.
//   - rollback(m) reverse-replays the journal through the raw mutators and
//     pops the route arena to the mark, restoring the state bit-for-bit
//     except swProcs list order: a processor moved and moved back ends up at
//     the end of its home list.
//   - keep() retains the mutations and drops the journal. It never pops the
//     arena: committed routes own their arena bytes until reset().
//   - The raw mutators (setRouteRaw through dirAdd/dirDel and foldWidth,
//     and moveProcRaw) and reset keep the objective's totals — penalty,
//     links, quad, live and totalHops — and the per-processor cross counts
//     exact, so globalCost, consolidationScore, anyViolation and sealed are
//     reads, and a rollback restores the totals with the tables.
//   - Every installed route is a simple path: it visits no switch twice, so
//     it crosses no direction twice and hops from no switch to itself.
//     applySeed, the one entry for routes from outside, admits no other.
//   - Route slices are immutable headers once installed: direct one- and
//     two-switch routes are shared cached headers, longer routes live in the
//     arena (or on the heap for rare oversized paths). Nothing ever writes
//     through an installed route.
type journalEntry struct {
	kind  uint8
	a, b  int32 // jeRoute: a = flow ID; jeAttach: a = proc, b = old home
	route []int // jeRoute: the replaced route header
}

const (
	jeRoute  = uint8(0)
	jeAttach = uint8(1)
)

// jmark is the arena position beginProbe returns.
type jmark struct {
	chunk int // arena chunk index
	off   int // arena offset within chunk
}

// routeArena bump-allocates route storage in fixed chunks. restore() pops to
// a mark (probe-scoped routes die with their rollback); reset() recycles all
// chunks for the next restart.
type routeArena struct {
	chunks [][]int
	ci     int
	off    int
}

const arenaChunkInts = 1024

func (a *routeArena) alloc(n int) []int {
	if n > arenaChunkInts {
		// Oversized paths (deep seed replays, long backbone routes) fall
		// back to the heap; restore/reset ignore them safely.
		return make([]int, n)
	}
	if len(a.chunks) == 0 {
		a.chunks = append(a.chunks, make([]int, arenaChunkInts))
	}
	if a.off+n > arenaChunkInts {
		a.ci++
		if a.ci == len(a.chunks) {
			a.chunks = append(a.chunks, make([]int, arenaChunkInts))
		}
		a.off = 0
	}
	out := a.chunks[a.ci][a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

func (a *routeArena) restore(chunk, off int) { a.ci, a.off = chunk, off }
func (a *routeArena) reset()                 { a.ci, a.off = 0, 0 }

// beginProbe opens the probe scope: until rollback or keep, setRoute and
// reattachNoReroute calls are journaled before they are applied.
func (s *state) beginProbe() jmark {
	s.probing = true
	return jmark{chunk: s.arena.ci, off: s.arena.off}
}

// rollback restores the state to the mark: the journal is reverse-replayed
// through the raw mutators and the arena is popped, so probe-allocated routes
// are reclaimed.
func (s *state) rollback(m jmark) {
	for i := len(s.journal) - 1; i >= 0; i-- {
		if e := &s.journal[i]; e.kind == jeRoute {
			s.setRouteRaw(int(e.a), e.route)
		} else {
			s.moveProcRaw(int(e.a), int(e.b))
		}
	}
	s.arena.restore(m.chunk, m.off)
	s.keep()
}

// keep closes the probe scope, retaining its mutations. The arena is not
// popped.
func (s *state) keep() {
	clear(s.journal) // drop the route headers
	s.journal = s.journal[:0]
	s.probing = false
}

// setRouteRaw is the journal-free route mutator: it maintains the pipe flow
// sets, the per-direction count tables (and through them every width, pair
// width and degree sum), both endpoints' cross counts and the objective's
// totals, and installs the new header.
func (s *state) setRouteRaw(fi int, route []int) {
	old := s.routes[fi]
	if old != nil {
		for i := 1; i < len(old); i++ {
			s.dirDel(old[i-1], old[i], fi)
		}
		s.totalHops -= len(old) - 1
	}
	if long := len(route) > 1; long != (len(old) > 1) {
		f, d := s.flows[fi], int32(1)
		if !long {
			d = -1
		}
		s.cross[f.Src] += d
		s.cross[f.Dst] += d
	}
	s.routes[fi] = route
	for i := 1; i < len(route); i++ {
		s.dirAdd(route[i-1], route[i], fi)
	}
	s.totalHops += len(route) - 1
}

// dirAdd puts flow fi on the (from,to) direction: one more in the count of
// every clique holding fi, so quad grows by (n+1)²−n² = 2n+1 per clique and
// the width rises to any count that passes it.
func (s *state) dirAdd(from, to, fi int) {
	pi := from*s.stride + to
	set := s.pipes[pi]
	if set == nil {
		// bsWords, not this pattern's own width: reset keeps the pooled
		// sets across patterns that fit, so all must share one capacity.
		set = make(model.BitSet, s.bsWords)
		s.pipes[pi] = set
	}
	set.Set(fi)
	at := int(s.rowAt[pi])
	if at == 0 {
		at = s.newCountRow(pi)
	}
	row := s.counts[at-1 : at-1+len(s.cliques)]
	w, q := s.dirW[pi], s.dirQ[pi]
	for _, c := range s.flowCliques[fi] {
		n := row[c]
		row[c] = n + 1
		q += int64(2*n + 1)
		if n >= w {
			w = n + 1
		}
	}
	s.quad += int(q - s.dirQ[pi])
	s.dirQ[pi] = q
	if w != s.dirW[pi] {
		s.dirW[pi] = w
		s.foldWidth(from, to, w)
	}
}

// dirDel is dirAdd's inverse. Only a clique that held the maximum can lower
// the width, and then by exactly one, unless another clique also holds it.
func (s *state) dirDel(from, to, fi int) {
	pi := from*s.stride + to
	s.pipes[pi].Clear(fi)
	at := int(s.rowAt[pi])
	row := s.counts[at-1 : at-1+len(s.cliques)]
	w, q := s.dirW[pi], s.dirQ[pi]
	heldMax := false
	for _, c := range s.flowCliques[fi] {
		n := row[c]
		row[c] = n - 1
		q -= int64(2*n - 1)
		heldMax = heldMax || n == w
	}
	s.quad += int(q - s.dirQ[pi])
	s.dirQ[pi] = q
	if !heldMax {
		return
	}
	for _, n := range row {
		if n == w {
			return
		}
	}
	s.dirW[pi] = w - 1
	s.foldWidth(from, to, w-1)
}

// newCountRow carves a zero row of per-clique flow counts off the slab for a
// direction's first flow and returns rowAt's encoding of it.
func (s *state) newCountRow(pi int) int {
	n, nc := len(s.counts), len(s.cliques)
	if n+nc > cap(s.counts) {
		grown := make([]int32, n, 2*cap(s.counts)+nc)
		copy(grown, s.counts)
		s.counts = grown
	}
	// Zero by construction: make zeroes the whole capacity and reset()
	// clears every row before truncating.
	s.counts = s.counts[:n+nc]
	s.rowAt[pi] = int32(n + 1)
	return n + 1
}

// foldWidth folds a direction's new width w into the unordered pair's width,
// the link total, and both endpoints' width sums and their part of the
// totals.
func (s *state) foldWidth(from, to int, w int32) {
	wi := s.widthIdx(from, to)
	pw := max(w, s.dirW[to*s.stride+from])
	if d := int64(pw - s.pairW[wi]); d != 0 {
		s.tally(from, -1)
		s.tally(to, -1)
		s.pairW[wi] = pw
		s.links += int(d)
		s.sumW[from] += d
		s.sumW[to] += d
		s.tally(from, 1)
		s.tally(to, 1)
	}
}

// moveProcRaw is the journal-free placement mutator (the old
// reattachNoReroute body): order-preserving removal from the current home
// list, append to the end of the target's, and both switches' part of the
// totals.
func (s *state) moveProcRaw(p, to int) {
	from := s.home[p]
	s.tally(from, -1)
	s.tally(to, -1)
	s.procToEnd(p)
	s.swProcs[from] = s.swProcs[from][:len(s.swProcs[from])-1]
	s.home[p] = to
	s.swProcs[to] = append(s.swProcs[to], p)
	s.tally(from, 1)
	s.tally(to, 1)
}

// cachedDirect returns the shared immutable header for the one- or two-
// switch direct route between home switches a and b.
func (s *state) cachedDirect(a, b int) []int {
	if a == b {
		r := s.selfRoute[a]
		if r == nil {
			r = []int{a}
			s.selfRoute[a] = r
		}
		return r
	}
	i := a*s.stride + b
	r := s.pairRoute[i]
	if r == nil {
		r = []int{a, b}
		s.pairRoute[i] = r
	}
	return r
}

// persistRoute returns a stable header holding cand's switches: shared
// cached headers for one- and two-hop routes, arena storage otherwise.
// cand itself may be caller scratch.
func (s *state) persistRoute(cand []int) []int {
	switch len(cand) {
	case 1:
		return s.cachedDirect(cand[0], cand[0])
	case 2:
		return s.cachedDirect(cand[0], cand[1])
	}
	out := s.arena.alloc(len(cand))
	copy(out, cand)
	return out
}

// persistReversed is persistRoute of cand walked backwards. cand joins two
// distinct switches: Best_Route groups only flows whose homes differ.
func (s *state) persistReversed(cand []int) []int {
	n := len(cand)
	if n == 2 {
		return s.cachedDirect(cand[1], cand[0])
	}
	out := s.arena.alloc(n)
	for i, x := range cand {
		out[n-1-i] = x
	}
	return out
}

// kernel is the immutable per-pattern half of the old state: flow interning,
// the conflict relation, clique bitsets, and the proc→flow map. Built once
// per Model and shared read-only by every restart of every synthesis on it.
type kernel struct {
	procs      int
	cliques    []model.Clique
	idx        *model.FlowIndex      // flow ⇄ dense ID (per-pattern)
	conflict   *model.ConflictMatrix // C as per-flow conflict rows
	cliqueBits []model.BitSet        // clique -> member flow IDs (flowCliques' source)
	flows      []model.Flow          // flow ID -> Flow (sorted; shared with idx)
	revID      []int                 // flow ID -> reverse flow's ID, or -1
	procFlows  [][]int               // processor -> flow IDs touching it
	// flowCliques is cliqueBits transposed: flow ID -> the cliques holding
	// it, ascending. The count tables and portBound walk it.
	flowCliques [][]int32
}

func newKernel(p *model.Pattern, cliques []model.Clique) *kernel {
	idx := model.NewFlowIndex(model.CliqueFlows(cliques))
	k := &kernel{
		procs:      p.Procs,
		cliques:    cliques,
		idx:        idx,
		conflict:   model.ConflictMatrixFromCliques(idx, cliques),
		cliqueBits: idx.CliqueBits(cliques),
		flows:      idx.Flows(),
		revID:      make([]int, idx.Len()),
		procFlows:  make([][]int, p.Procs),
	}
	k.flowCliques = make([][]int32, idx.Len())
	for c, bits := range k.cliqueBits {
		bits.ForEach(func(fi int) { k.flowCliques[fi] = append(k.flowCliques[fi], int32(c)) })
	}
	for fi, f := range k.flows {
		if ri, ok := idx.ID(f.Reverse()); ok {
			k.revID[fi] = ri
		} else {
			k.revID[fi] = -1
		}
		k.procFlows[f.Src] = append(k.procFlows[f.Src], fi)
		k.procFlows[f.Dst] = append(k.procFlows[f.Dst], fi)
	}
	return k
}

// statePool recycles states across restarts and across Synthesize calls:
// newState's matrices, bitsets, arena chunks, and scratch buffers are reused
// instead of reallocated. reset() re-derives every value from the kernel, so
// a pooled state is indistinguishable from a fresh one.
var statePool = sync.Pool{New: func() any { return new(state) }}

func newState(k *kernel, opt Options, seed int64, stats *Stats) *state {
	s := statePool.Get().(*state)
	s.kernel = k
	s.opt = opt
	s.stats = stats
	if s.src == nil {
		s.src = &drawSource{Source: rand.NewSource(seed)}
		s.rng = rand.New(s.src)
	} else {
		// Re-seeding the pooled source reproduces rand.New(rand.NewSource
		// (seed))'s stream exactly: rand.Rand holds no draw state of its
		// own for the Int/Float64/Shuffle methods the search uses.
		s.src.Seed(seed)
	}
	s.src.drew = false
	s.reset()
	return s
}

// release returns the state to the pool, dropping every reference into the
// kernel and context so pooled memory never pins a pattern.
func (s *state) release() {
	s.kernel = nil
	s.ctx = nil
	s.stats = nil
	s.opt = Options{}
	s.src.onFirst = nil
	statePool.Put(s)
}

// drawSource is a restart's random source. It records whether the restart
// has drawn at all: the seed reaches the search only through draws, so a
// restart that never draws computes the same result under every seed, and
// SynthesizeModel computes such a restart once (restartKind). Every draw
// the search makes (Intn, Shuffle, Float64) goes through Int63, so wrapping
// the source leaves the stream unchanged.
type drawSource struct {
	rand.Source
	drew bool
	// onFirst, when set, runs at the restart's first draw.
	onFirst func()
}

func (d *drawSource) Int63() int64 {
	if !d.drew {
		d.drew = true
		if d.onFirst != nil {
			d.onFirst()
		}
	}
	return d.Source.Int63()
}

// reset rebuilds the mutable state for the current kernel: one megaswitch
// holding every processor, every flow on the shared single-switch route,
// all tables zero and the totals the megaswitch's, journal and arena empty.
//
// Only the switch indices used since the last reset can hold a nonzero cell:
// the list of switches only grows between resets, and every mutator writes
// at indices below its length. So reset clears the used square of each
// matrix, not all stride² cells: a NoI restart that grew the stride to 64
// clears the few indices it used.
func (s *state) reset() {
	used := len(s.swProcs)
	s.growStride(8)
	nf := len(s.flows)
	words := (nf + 63) / 64
	if words > s.bsWords {
		// Pooled bitsets sized for a smaller flow universe cannot index
		// this pattern's flow IDs; drop them and let setRouteRaw rebuild.
		// Oversized sets are value-safe (AndCount zero-extends).
		for i := range s.pipes {
			s.pipes[i] = nil
		}
		s.bsWords = words
	} else {
		for a := 0; a < used; a++ {
			for _, set := range s.pipes[a*s.stride : a*s.stride+used] {
				if set != nil {
					set.Reset()
				}
			}
		}
	}
	for a := 0; a < used; a++ {
		row := a * s.stride
		clear(s.dirW[row : row+used])
		clear(s.dirQ[row : row+used])
		clear(s.pairW[row : row+used])
		clear(s.rowAt[row : row+used])
	}
	clear(s.sumW[:used])
	// The slab is cut into rows of this kernel's clique count, so every row
	// goes back: zeroed here, carved again by newCountRow on first use.
	clear(s.counts)
	s.counts = s.counts[:0]
	if nc := 2 * len(s.cliques); cap(s.boundCnt) < nc {
		s.boundCnt = make([]int32, nc)
	} else {
		s.boundCnt = s.boundCnt[:nc] // portBound leaves it zero
	}

	if cap(s.home) < s.procs {
		s.home = make([]int, s.procs)
	} else {
		s.home = s.home[:s.procs]
		for i := range s.home {
			s.home[i] = 0
		}
	}
	if cap(s.cross) < s.procs {
		s.cross = make([]int32, s.procs)
	} else {
		s.cross = s.cross[:s.procs]
		clear(s.cross)
	}
	if cap(s.allProcs) < s.procs {
		s.allProcs = make([]int, s.procs)
	}
	all := s.allProcs[:s.procs:s.procs]
	for i := range all {
		all[i] = i
	}
	s.swProcs = append(s.swProcs[:0], all)
	s.swDepth = append(s.swDepth[:0], 0)

	s.journal = s.journal[:0]
	s.probing = false
	s.arena.reset()
	if cap(s.routes) < nf {
		s.routes = make([][]int, nf)
	} else {
		s.routes = s.routes[:nf]
	}
	r0 := s.cachedDirect(0, 0)
	for fi := range s.routes {
		s.routes[fi] = r0
	}
	s.totalHops, s.penalty, s.links, s.quad, s.live = 0, 0, 0, 0, 0
	s.liveSet.Reset()
	s.tally(0, 1) // the megaswitch
	s.seedFast = false
}
