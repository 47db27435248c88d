package synth

import "math"

// This file is the what-if evaluator: the one place a candidate — a processor
// move, a swap, a group reroute, a pipe elimination — is priced. Candidates
// come in families that share one departure: every Best_Route path of a group
// leaves the group's current route, every intermediate of a pipe elimination
// takes the pipe's flows off it, every relocation target of a processor takes
// its flows off their routes. A caller states the shared part, the base, once
// as "this flow leaves its route" (wiLeave) and "joins this hop" (wiJoin) and
// prices it with wiFreeze. Then it states each candidate's joins on top
// (wiJoinCand) and prices them with wiDeltaCand, which returns the exact
// change of the weighted objective (cost.go) that committing base and
// candidate through reattach/setRoute would cause — unless the candidate's
// floor (wiFloor) already reaches the family's bound, the price a candidate
// must beat to be kept: then it returns the floor unpriced. wiRelease clears
// the base. A one-shot evaluation is a family of one: a swap's leaves are its
// base and its joins its candidate (probeSwap).
//
// Contract (see DESIGN.md §13):
//
//   - Evaluation reads counts, rowAt, dirW, pairW, sumW and len(swProcs) and
//     writes none of them, nor pipes, routes, home or the journal. What a
//     rejected relocation leaves behind is what the apply/undo round trip of
//     the reference evaluator (moveref_test.go) leaves: the probed processor
//     at the end of its home list, and one MovesEvaluated tick. For swaps
//     that holds per pass, not per probe: probeSwap only prices, and
//     swapRefine leaves every list and the tick count as the probes' round
//     trips would, deferring the list moves while no swap commits.
//   - A base may state leaves and joins, and one processor leaving a switch;
//     a candidate only joins, and may bring one processor to a switch. Each
//     flow leaves its whole route before it joins anything. Routes are
//     simple paths (engine.go), so no leave or join is a self-loop and a
//     leaving flow crosses each direction once.
//   - Per-clique count changes accumulate in an overlay row per touched
//     direction, and a direction's new width is the maximum of its count row
//     with the overlay applied, over the whole row (wiScan): a move can take
//     the flow that held the maximum and add another clique's in the same
//     breath. wiFreeze scans each base direction once.
//   - Because a candidate only adds, a base direction's width under it is the
//     larger of its frozen width and the counts the candidate raised, read as
//     it joins: no frozen row is rescanned. A direction the candidate opens
//     has only the candidate's counts on it and is scanned whole. Only the
//     pairs and switches the candidate touches are re-priced, and wiDeltaCand
//     clears exactly the candidate's part of the scratch: its counts, the
//     directions it opened, its marks.
//   - A pair is priced once, from the new widths of both its directions (an
//     untouched one reads dirW), into links and both switches' degree.
//   - A winner is committed only after wiRelease: the base reads the tables a
//     commit rewrites.
//   - wiDeltaCand(to, bound) returns the exact price when it is below bound;
//     a result at or above bound is a lower bound on the exact price, which
//     therefore reaches bound too. noBound always prices exactly.
//   - Between families the scratch is all-zero and its lists are empty, so it
//     survives pooling across kernels; slot, seen, deg and fdeg follow
//     growStride.

// wiDir is one pipe direction a pending what-if touches.
type wiDir struct {
	from, to int32
	rev      int32 // 1 + index of the reverse direction's entry, 0 if untouched
	w        int32 // width under the frozen base (dirW if the base leaves it alone)
	cw       int32 // width under the pending candidate; 0 if it does not touch it
}

// wiHop is a join the pending candidate states: flow fi on the (from,to)
// direction.
type wiHop struct{ fi, from, to int32 }

// noBound is the bound of a caller that reads the exact price whatever it is
// (annealMoves' Metropolis test).
const noBound = math.MaxInt

// whatIf is the evaluator's scratch: the change stated so far.
type whatIf struct {
	slot  []int32 // direction -> 1 + index in dirs, 0 if untouched
	dirs  []wiDir // the base's directions, then the candidate's new ones
	ov    []int32 // per-clique count deltas of dirs[k] at [k·nc, (k+1)·nc)
	deg   []int64 // switch -> pending change of its pair-width sum (wiFloor: opened pairs)
	fdeg  []int64 // switch -> the frozen base's change of its pair-width sum
	sws   []int   // switches with a deg entry (then an fdeg entry); repeats allowed
	hops  int     // pending hop change: the base's, then the candidate's
	nbase int     // len(dirs) when the base froze
	left  int     // 1 + the switch a processor leaves in the base, 0 if none
	base  int     // the frozen base's cost delta

	// The pending candidate, on top of a frozen base.
	cand  []wiHop // its joins as stated; wiDeltaCand applies them
	seen  []bool  // pair -> counted by the running wiFloor; all false between calls
	quad  int     // its quad change so far
	cdirs []int32 // base entries it touches, each once; its own follow the base's
	csws  []int   // switches with a deg entry; repeats allowed

	arr []wiArr // the relocated processor's flows
	via []int   // the eliminated pipe's flows that need an intermediate
}

// wiArr is one flow of a relocated processor: the home of its other endpoint,
// and whether it leaves the processor.
type wiArr struct {
	fi, h int32
	out   bool
}

// wiTouch adds sign to the overlay count of every clique holding fi on the
// (from,to) direction, opening the direction's entry if it is untouched. The
// entry is filled field by field: a composite literal goes through a stack
// temporary whose reload stalls on store forwarding.
func (s *state) wiTouch(from, to, fi int, sign int32) {
	wi, nc := &s.wi, len(s.cliques)
	pi := from*s.stride + to
	k := int(wi.slot[pi]) - 1
	if k < 0 {
		rev := wi.slot[to*s.stride+from]
		wi.dirs = append(wi.dirs, wiDir{})
		k = len(wi.dirs) - 1
		e := &wi.dirs[k]
		e.from, e.to, e.rev, e.w = int32(from), int32(to), rev, s.dirW[pi]
		wi.slot[pi] = int32(k + 1)
		if rev != 0 {
			wi.dirs[rev-1].rev = int32(k + 1)
		}
		if need := (k + 1) * nc; need > len(wi.ov) {
			wi.ov = append(wi.ov, make([]int32, need-len(wi.ov))...)
		}
	}
	row := wi.ov[k*nc : (k+1)*nc]
	for _, c := range s.flowCliques[fi] {
		row[c] += sign
	}
}

// wiLeave takes flow fi off every direction of its current route. Only a
// base leaves.
func (s *state) wiLeave(fi int) {
	r := s.routes[fi]
	s.wi.hops -= len(r) - 1
	for i := 1; i < len(r); i++ {
		s.wiTouch(r[i-1], r[i], fi, -1)
	}
}

// wiJoin puts flow fi, which has left its route, on the hop (from,to) in the
// base.
func (s *state) wiJoin(fi, from, to int) {
	s.wi.hops++
	s.wiTouch(from, to, fi, 1)
}

// wiJoinCand puts flow fi on the hop (from,to) in the pending candidate, on
// top of the frozen base. The join is only recorded: wiDeltaCand reads the
// candidate's floor from the recorded joins and applies them (wiRaise) only
// when the floor is below its bound. So a family of one may record its
// candidate's joins before it freezes the base (probeSwap).
func (s *state) wiJoinCand(fi, from, to int) {
	s.wi.cand = append(s.wi.cand, wiHop{int32(fi), int32(from), int32(to)})
}

// wiRaise applies a recorded join of the pending candidate. A direction the
// candidate opens is priced whole by wiDeltaCand; on a base direction the
// join prices itself as it goes: each count it raises is read with the base
// and the candidate's earlier joins applied, so the maxima are the
// candidate's widths and the increments sum to its quad change.
func (s *state) wiRaise(fi, from, to int) {
	wi, nc := &s.wi, len(s.cliques)
	wi.hops++
	pi := from*s.stride + to
	k := int(wi.slot[pi]) - 1
	if k < 0 || k >= wi.nbase {
		s.wiTouch(from, to, fi, 1)
		return
	}
	ov := wi.ov[k*nc : (k+1)*nc]
	e := &wi.dirs[k]
	if e.cw == 0 {
		wi.cdirs = append(wi.cdirs, int32(k))
	}
	row := s.countRow(pi)
	w, dq := max(e.w, e.cw), 0
	for _, c := range s.flowCliques[fi] {
		n := row[c] + ov[c]
		ov[c]++
		dq += int(2*n + 1) // (n+1)² − n²
		w = max(w, n+1)
	}
	// Every flow is in some clique, so w ≥ 1 and cw != 0 marks the entry.
	e.cw = w
	wi.quad += dq
}

// countRow is the (from,to) direction's per-clique count row, pi its index.
func (s *state) countRow(pi int) []int32 {
	if at := int(s.rowAt[pi]); at != 0 {
		return s.counts[at-1 : at-1+len(s.cliques)]
	}
	return s.boundCnt[:len(s.cliques)] // no row yet: all counts zero, as portBound leaves these
}

// wiScan returns entry k's width with its overlay applied, the maximum over
// the direction's whole count row, and the quad change the overlay makes.
func (s *state) wiScan(k int) (int32, int) {
	nc, e := len(s.cliques), &s.wi.dirs[k]
	ov := s.wi.ov[k*nc : (k+1)*nc]
	w, dq := int32(0), 0
	for c, n := range s.countRow(int(e.from)*s.stride + int(e.to)) {
		if d := ov[c]; d != 0 {
			dq += int(d) * int(2*n+d) // (n+d)² − n²
			n += d
		}
		w = max(w, n)
	}
	return w, dq
}

// wiFreeze prices the stated change as the base of a family, with one
// processor leaving switch `from` (-1: none does), and returns its cost
// delta. The base's overlay, widths and degree changes stay in the scratch
// for the candidates.
func (s *state) wiFreeze(from int) int {
	wi := &s.wi
	links, quad := 0, 0
	for k := range wi.dirs {
		e := &wi.dirs[k]
		a, b := int(e.from), int(e.to)
		w, dq := s.wiScan(k)
		e.w = w
		quad += dq
		if int(e.rev) > k+1 {
			continue // the reverse direction's entry, further on, prices the pair
		}
		rw := s.dirW[b*s.stride+a]
		if e.rev != 0 {
			rw = wi.dirs[e.rev-1].w
		}
		if d := int(max(w, rw) - s.pairW[s.widthIdx(a, b)]); d != 0 {
			links += d
			wi.deg[a] += int64(d)
			wi.deg[b] += int64(d)
			wi.sws = append(wi.sws, a, b)
		}
	}
	pen := 0
	if from >= 0 {
		wi.sws = append(wi.sws, from)
		pen, wi.fdeg[from] = s.wiExcess(from, -1)
	}
	for _, sw := range wi.sws {
		if wi.deg[sw] != 0 {
			p, d := s.wiExcess(sw, 0)
			pen += p
			wi.fdeg[sw] = d
		}
	}
	wi.base = pen*costPenaltyWeight + links*costLinkWeight + quad*costQuadWeight + wi.hops*costHopWeight
	wi.hops, wi.nbase, wi.left = 0, len(wi.dirs), from+1
	return wi.base
}

// wiFloor is a lower bound on what wiDeltaCand prices the pending candidate
// at, with one processor arriving at switch `to` (-1: none does), read in
// O(joins) from the frozen widths. A candidate only joins, so on top of the
// base's delta it adds at least
//
//   - one hop per join, exactly;
//   - one quad unit per clique of the joining flow: each count it raises goes
//     from n ≥ 0 to n+1, so its square rises by 2n+1 ≥ 1;
//   - one link per distinct pair whose width under the frozen base is zero:
//     the join raises it to at least one, and no pair's width falls;
//   - the excess such pairs force: each one the candidate opens raises both
//     its switches' width sums by at least one, and `to` gains a processor
//     and a port. A switch with k opened pairs therefore ends at least k+dn
//     ports up, dn = 1 at `to`, and excess is monotone in degree and
//     processor count; no other switch's excess falls.
//
// The terms only add, so the joins are read, and the penalty priced, only
// until the floor reaches bound. The opened pairs are counted per switch in
// deg, which wiExcess consumes; the pair marks and every count are cleared
// before it returns.
func (s *state) wiFloor(to, bound int) int {
	wi := &s.wi
	fl, n := wi.base+len(wi.cand)*costHopWeight, 0
	for ; n < len(wi.cand) && fl < bound; n++ {
		h := wi.cand[n]
		fl += len(s.flowCliques[h.fi]) * costQuadWeight
		a, b := int(h.from), int(h.to)
		pi := s.widthIdx(a, b)
		if !wi.seen[pi] && s.frozenW(a, b) == 0 && s.frozenW(b, a) == 0 {
			wi.seen[pi] = true
			wi.deg[a]++
			wi.deg[b]++
			fl += costLinkWeight
		}
	}
	if to >= 0 && fl < bound {
		p, _ := s.wiExcess(to, 1)
		fl += p * costPenaltyWeight
	}
	for _, h := range wi.cand[:n] {
		a, b := int(h.from), int(h.to)
		pi := s.widthIdx(a, b)
		if !wi.seen[pi] {
			continue
		}
		wi.seen[pi] = false
		for _, sw := range [2]int{a, b} {
			if wi.deg[sw] == 0 {
				continue // consumed: at `to` or at an earlier pair
			}
			if fl < bound {
				p, _ := s.wiExcess(sw, 0)
				fl += p * costPenaltyWeight
			} else {
				wi.deg[sw] = 0
			}
		}
	}
	return fl
}

// frozenW is the (from,to) direction's width under the frozen base, while no
// candidate join is applied.
func (s *state) frozenW(from, to int) int32 {
	pi := from*s.stride + to
	if k := s.wi.slot[pi]; k != 0 {
		return s.wi.dirs[k-1].w
	}
	return s.dirW[pi]
}

// wiDeltaCand prices the base plus the joins stated since wiFreeze, with one
// processor arriving at switch `to` (-1: none does), and clears the
// candidate's part of the scratch. A candidate whose floor reaches bound is
// not priced: the floor is returned instead (the contract above).
func (s *state) wiDeltaCand(to, bound int) int {
	wi, nc := &s.wi, len(s.cliques)
	if !priceEveryTarget {
		if fl := s.wiFloor(to, bound); fl >= bound {
			wi.cand = wi.cand[:0]
			return fl
		}
	}
	if exactPricing != nil {
		exactPricing(s, to)
	}
	for _, h := range wi.cand {
		s.wiRaise(int(h.fi), int(h.from), int(h.to))
	}
	quad := wi.quad
	for k := wi.nbase; k < len(wi.dirs); k++ {
		w, dq := s.wiScan(k)
		wi.dirs[k].cw = w
		quad += dq
	}
	links := 0
	for _, k := range wi.cdirs {
		links += s.wiPairCand(int(k))
	}
	for k := wi.nbase; k < len(wi.dirs); k++ {
		links += s.wiPairCand(k)
	}
	pen := 0
	if to >= 0 {
		pen, _ = s.wiExcess(to, 1)
	}
	for _, sw := range wi.csws {
		if wi.deg[sw] != 0 {
			p, _ := s.wiExcess(sw, 0)
			pen += p
		}
	}
	// Clear the candidate: its counts on base directions join by join, the
	// directions it opened whole.
	ov, fc := wi.ov, s.flowCliques
	for _, h := range wi.cand {
		if k := int(wi.slot[int(h.from)*s.stride+int(h.to)]) - 1; k < wi.nbase {
			row := ov[k*nc:]
			for _, c := range fc[h.fi] {
				row[c]--
			}
		}
	}
	for _, k := range wi.cdirs {
		wi.dirs[k].cw = 0
	}
	for _, e := range wi.dirs[wi.nbase:] {
		wi.slot[int(e.from)*s.stride+int(e.to)] = 0
		if e.rev != 0 && int(e.rev) <= wi.nbase {
			wi.dirs[e.rev-1].rev = 0
		}
	}
	clear(ov[wi.nbase*nc : len(wi.dirs)*nc])
	d := wi.base + pen*costPenaltyWeight + links*costLinkWeight + quad*costQuadWeight + wi.hops*costHopWeight
	wi.dirs = wi.dirs[:wi.nbase]
	wi.cand, wi.cdirs, wi.csws = wi.cand[:0], wi.cdirs[:0], wi.csws[:0]
	wi.quad, wi.hops = 0, 0
	return d
}

// exactPricing, set only by tests, is called with the state and the arriving
// switch of every candidate wiDeltaCand prices exactly, before it prices it:
// the candidate's joins are stated and none is applied.
var exactPricing func(s *state, to int)

// wiPairCand prices the change the pending candidate makes to the pair of
// entry k's direction into links and both switches' degree, once per pair.
func (s *state) wiPairCand(k int) int {
	wi := &s.wi
	e := &wi.dirs[k]
	a, b := int(e.from), int(e.to)
	rw := s.dirW[b*s.stride+a]
	rcw := rw
	if e.rev != 0 {
		r := &wi.dirs[e.rev-1]
		if r.cw != 0 && int(e.rev)-1 < k {
			return 0 // the candidate touches both directions: priced at the reverse
		}
		rw, rcw = r.w, max(r.w, r.cw)
	}
	d := int(max(e.cw, rcw) - max(e.w, rw))
	if d != 0 {
		wi.deg[a] += int64(d)
		wi.deg[b] += int64(d)
		wi.csws = append(wi.csws, a, b)
	}
	return d
}

// wiRelease clears the frozen base, leaving the scratch all-zero.
func (s *state) wiRelease() {
	wi := &s.wi
	for _, e := range wi.dirs {
		wi.slot[int(e.from)*s.stride+int(e.to)] = 0
	}
	clear(wi.ov[:len(wi.dirs)*len(s.cliques)])
	for _, sw := range wi.sws {
		wi.fdeg[sw] = 0
	}
	wi.dirs, wi.sws = wi.dirs[:0], wi.sws[:0]
	wi.hops, wi.nbase, wi.left, wi.base = 0, 0, 0, 0
}

// wiExcess is the change of switch sw's constraint excess under its pending
// width-sum change and dn more processors, on top of the frozen base (none
// while the base is being priced). It consumes the deg entry and returns it.
func (s *state) wiExcess(sw, dn int) (int, int64) {
	wi := &s.wi
	n := len(s.swProcs[sw])
	if sw+1 == wi.left {
		n--
	}
	deg := n + int(s.sumW[sw]) + int(wi.fdeg[sw])
	d := wi.deg[sw]
	wi.deg[sw] = 0
	return s.excess(deg+dn+int(d), n+dn) - s.excess(deg, n), d
}

// procToEnd moves p to the end of its home switch's processor list, keeping
// the order of the rest.
func (s *state) procToEnd(p int) {
	procs := s.swProcs[s.home[p]]
	for i, q := range procs {
		if q == p {
			copy(procs[i:], procs[i+1:])
			procs[len(procs)-1] = p
			return
		}
	}
}

// wiDepart states every flow of p leaving its route and freezes the family of
// p's relocations (step 7's "assuming direct routes"). It lists, for
// wiArrive, the home of each flow's other endpoint.
func (s *state) wiDepart(p int) {
	arr := s.wi.arr[:0]
	for _, fi := range s.procFlows[p] {
		s.wiLeave(fi)
		f := s.flows[fi]
		a := wiArr{fi: int32(fi), h: int32(s.home[f.Src]), out: f.Src == p}
		if a.out {
			a.h = int32(s.home[f.Dst])
		}
		arr = append(arr, a)
	}
	s.wi.arr = arr
	s.wiFreeze(s.home[p])
}

// wiArrive prices relocating p to switch `to` on its frozen departure, bound
// as wiDeltaCand: each of p's flows joins its direct path. Priced or not, p
// goes to the end of its home list and the move is counted evaluated.
func (s *state) wiArrive(p, to, bound int) int {
	for _, a := range s.wi.arr {
		switch {
		case int(a.h) == to: // local at the target
		case a.out:
			s.wiJoinCand(int(a.fi), to, int(a.h))
		default:
			s.wiJoinCand(int(a.fi), int(a.h), to)
		}
	}
	s.procToEnd(p)
	s.stats.MovesEvaluated++
	return s.wiDeltaCand(to, bound)
}

// probeMove returns the cost delta of moving p to switch `to` with its flows
// rerouted directly, bound as wiDeltaCand.
func (s *state) probeMove(p, to, bound int) int {
	s.wiDepart(p)
	d := s.wiArrive(p, to, bound)
	s.wiRelease()
	return d
}

// probeSwap returns the cost delta of exchanging the homes of p and q with
// both processors' flows rerouted directly, bound as wiDeltaCand. It is a
// family of one: the flows' leaves are the base, their direct paths the
// candidate, whose joins wiDeltaCand applies after the base froze. No
// switch's processor count moves, and neither do the lists: swapRefine
// leaves them as the probes would.
func (s *state) probeSwap(p, q, bound int) int {
	sp, sq := s.home[p], s.home[q]
	for _, proc := range [2]int{p, q} {
		for _, fi := range s.procFlows[proc] {
			f := s.flows[fi]
			if proc == q && (f.Src == p || f.Dst == p) {
				continue // stated with p's flows
			}
			a, b := s.home[f.Src], s.home[f.Dst]
			switch f.Src {
			case p:
				a = sq
			case q:
				a = sp
			}
			switch f.Dst {
			case p:
				b = sq
			case q:
				b = sp
			}
			s.wiLeave(fi)
			if a != b {
				s.wiJoinCand(fi, a, b)
			}
		}
	}
	s.wiFreeze(-1)
	d := s.wiDeltaCand(-1, bound)
	s.wiRelease()
	return d
}
