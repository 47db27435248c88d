package model

import (
	"math"
	"sort"
	"strconv"
)

// Clique is a set of flows that are all simultaneously in flight at some
// instant — one potential contention period of Definition 5. Flows are kept
// sorted and deduplicated; self-flows are excluded because they never touch
// the network.
type Clique []Flow

// NewClique builds a canonical clique from arbitrary flows.
func NewClique(flows ...Flow) Clique {
	seen := make(map[Flow]bool, len(flows))
	c := make(Clique, 0, len(flows))
	for _, f := range flows {
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		c = append(c, f)
	}
	sort.Slice(c, func(i, j int) bool { return c[i].Less(c[j]) })
	return c
}

// Contains reports whether the clique includes flow f. The clique must be
// canonical (sorted), as produced by NewClique or ContentionPeriods.
func (c Clique) Contains(f Flow) bool {
	i := sort.Search(len(c), func(i int) bool { return !c[i].Less(f) })
	return i < len(c) && c[i] == f
}

// SubsetOf reports whether every flow of c appears in d.
func (c Clique) SubsetOf(d Clique) bool {
	if len(c) > len(d) {
		return false
	}
	i := 0
	for _, f := range c {
		for i < len(d) && d[i].Less(f) {
			i++
		}
		if i >= len(d) || d[i] != f {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether two canonical cliques hold the same flows.
func (c Clique) Equal(d Clique) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for map deduplication.
func (c Clique) Key() string {
	return string(c.appendKey(make([]byte, 0, 8*len(c))))
}

// appendKey appends the canonical key to dst without fmt.
func (c Clique) appendKey(dst []byte) []byte {
	for _, f := range c {
		dst = strconv.AppendInt(dst, int64(f.Src), 10)
		dst = append(dst, '>')
		dst = strconv.AppendInt(dst, int64(f.Dst), 10)
		dst = append(dst, ';')
	}
	return dst
}

// periodEvent is one endpoint (start or finish) of a message: its time and
// the dense ID of the message's flow, -1 for a self-flow.
type periodEvent struct {
	t  float64
	id int32
}

// ContentionPeriods extracts the communication clique set K (Definition 5):
// the distinct sets of flows that are simultaneously in flight at some
// instant. The instants examined are the start and finish times of all
// messages; because message intervals are inclusive, every maximal
// simultaneous set is realized at one of them. All distinct sets found there
// are returned, not only the maximal ones, in order of first occurrence;
// each is sorted by Flow.Less and holds no self-flow (a self-flow never
// touches the network, but its endpoints are instants like any other).
//
// The sweep runs on dense flow IDs: messages sorted by start and by finish
// are merged with two cursors, a per-flow in-flight count tracks how many
// messages of each flow cover the current instant, and one BitSet holds the
// flows whose count is positive. Only an instant at which some count crossed
// 0<->1 can show a new set; the bitset is then looked up by hash and Equal
// among the sets seen so far, and a Clique is built only for a new one.
func ContentionPeriods(p *Pattern) []Clique { return contentionPeriods(p, sortByTime) }

// contentionPeriods is ContentionPeriods with its two event lists sorted by
// sortEvents, which gets a scratch list and returns it, grown if it needed a
// longer one.
func contentionPeriods(p *Pattern, sortEvents func(evs, buf []periodEvent) []periodEvent) []Clique {
	flows := make([]Flow, len(p.Messages))
	for i, m := range p.Messages {
		flows[i] = m.Flow()
	}
	ix := NewFlowIndex(flows)
	if ix.Len() == 0 {
		return nil
	}
	n := len(p.Messages)
	evs := make([]periodEvent, 2*n)
	starts, finishes := evs[:n], evs[n:]
	for i, m := range p.Messages {
		id := int32(-1)
		if fid, ok := ix.ID(flows[i]); ok {
			id = int32(fid)
		}
		starts[i] = periodEvent{m.Start, id}
		finishes[i] = periodEvent{m.Finish, id}
	}
	sortEvents(finishes, sortEvents(starts, nil))

	words := (ix.Len() + 63) / 64
	active := make(BitSet, words)
	inFlight := make([]int32, ix.Len())
	nActive := 0
	dirty := false

	// The distinct sets so far: set k's words are seen[k*words:(k+1)*words],
	// and sets sharing a hash chain through prev from head (both hold k+1,
	// 0 ending the chain).
	var out []Clique
	var seen []uint64
	var prev []int32
	head := make(map[uint64]int32)

	for i, j := 0, 0; j < n; {
		t := finishes[j].t
		if i < n && starts[i].t < t {
			t = starts[i].t
		}
		// The comparisons are phrased as !(x > t) so that a NaN time, which
		// Pattern.Validate rejects but a caller may still pass here, is
		// consumed like any other and the loop always advances j.
		for ; i < n && !(starts[i].t > t); i++ {
			id := starts[i].id
			if id < 0 {
				continue
			}
			if inFlight[id]++; inFlight[id] == 1 {
				active.Set(int(id))
				nActive++
				dirty = true
			}
		}
		if dirty && nActive > 0 {
			dirty = false
			h := hashBits(active)
			k := head[h]
			for k != 0 && !active.Equal(seen[int(k-1)*words:int(k)*words]) {
				k = prev[k-1]
			}
			if k == 0 {
				c := make(Clique, 0, nActive)
				active.ForEach(func(id int) { c = append(c, ix.Flow(id)) })
				out = append(out, c)
				seen = append(seen, active...)
				prev = append(prev, head[h])
				head[h] = int32(len(out))
			}
		}
		// Messages finishing at t were still in flight at t; they retire
		// before the next instant, and no finish lies strictly between.
		for ; j < n && !(finishes[j].t > t); j++ {
			id := finishes[j].id
			if id < 0 {
				continue
			}
			if inFlight[id]--; inFlight[id] == 0 {
				active.Clear(int(id))
				nActive--
				dirty = true
			}
		}
	}
	return out
}

// sortByTime sorts evs by time in the order cmp.Compare gives times — every
// NaN first, −0 equal to +0 — and returns buf, its scratch, allocated or
// grown if evs needed a longer one. The sweep consumes all events at one
// instant together, so it does not depend on their order within an instant,
// and any sort in that order serves. A list already in order is left alone;
// any other is LSD radix sorted on timeKey, a byte a pass, skipping each
// byte that every key shares.
func sortByTime(evs, buf []periodEvent) []periodEvent {
	if sortedByTime(evs) {
		return buf
	}
	if len(buf) < len(evs) {
		buf = make([]periodEvent, len(evs))
	}
	var counts [8][256]int32
	for _, e := range evs {
		k := timeKey(e.t)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst := evs, buf[:len(evs)]
	first := timeKey(evs[0].t)
	for b := range counts {
		c, shift := &counts[b], 8*b
		if int(c[byte(first>>shift)]) == len(evs) {
			continue // every key has this byte
		}
		var at int32
		for d, cnt := range c {
			c[d], at = at, at+cnt
		}
		for _, e := range src {
			d := byte(timeKey(e.t) >> shift)
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &evs[0] {
		copy(evs, src)
	}
	return buf
}

// sortedByTime reports whether evs is already in sortByTime's order, as a
// generated trace's starts are: its messages are listed by start time.
func sortedByTime(evs []periodEvent) bool {
	for i := 1; i < len(evs); i++ {
		if timeKey(evs[i].t) < timeKey(evs[i-1].t) {
			return false
		}
	}
	return true
}

// timeKey maps a time to a key whose unsigned order is cmp.Compare's order
// of times: every NaN is 0, below −Inf, and −0 keys as +0. A non-negative
// time sets the top bit over its bits; a negative one inverts its bits, so
// its larger magnitudes key lower.
func timeKey(t float64) uint64 {
	switch {
	case t != t:
		return 0
	case t == 0:
		return 1 << 63
	}
	b := math.Float64bits(t)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// hashBits hashes a flow set for ContentionPeriods' dedup table: a
// polynomial over the words. Colliding sets are told apart by BitSet.Equal.
func hashBits(b BitSet) uint64 {
	var h uint64
	for _, w := range b {
		h = h*hashMul + w
	}
	return h
}

// hashMul is hashBits' multiplier (the 64-bit golden-ratio constant).
const hashMul = 0x9E3779B97F4A7C15

// MaxCliques reduces a clique set to the communication maximum clique set of
// Section 2.2: any clique that is a subset of another is dominated and
// removed (a network contention-free for the superset is contention-free for
// the subset). Order of first occurrence is preserved.
func MaxCliques(cliques []Clique) []Clique {
	// Sort indices by descending size so each clique need only be checked
	// against strictly larger (or equal-size earlier) ones.
	idx := make([]int, len(cliques))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return len(cliques[idx[a]]) > len(cliques[idx[b]]) })
	dominated := make([]bool, len(cliques))
	for pos, i := range idx {
		c := cliques[i]
		for _, j := range idx[:pos] {
			if dominated[j] {
				continue
			}
			if c.SubsetOf(cliques[j]) {
				dominated[i] = true
				break
			}
		}
	}
	var kept []Clique
	for i, c := range cliques {
		if !dominated[i] {
			kept = append(kept, c)
		}
	}
	return kept
}

// MaxCliqueSet is a convenience composition: contention periods reduced to
// the maximum clique set.
func MaxCliqueSet(p *Pattern) []Clique {
	return MaxCliques(ContentionPeriods(p))
}

// CliqueFlows returns the union of flows over all cliques, sorted. This is
// the flow universe the synthesizer routes.
func CliqueFlows(cliques []Clique) []Flow {
	seen := make(map[Flow]bool)
	var out []Flow
	for _, c := range cliques {
		for _, f := range c {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
