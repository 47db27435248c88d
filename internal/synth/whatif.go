package synth

// This file is the what-if evaluator: the one place a candidate — a processor
// move, a swap, a group reroute, a pipe elimination — is priced. A caller
// states the change as "this flow leaves its route" (wiLeave) and "joins this
// hop" (wiJoin), then wiDelta returns the exact change of the weighted
// objective (cost.go) that committing it through reattach/setRoute would
// cause, and clears the scratch.
//
// Contract (see DESIGN.md §13):
//
//   - Evaluation reads counts, rowAt, dirW, pairW, sumW and len(swProcs) and
//     writes none of them, nor pipes, routes, home or the journal. What a
//     rejected candidate leaves behind is what the apply/undo round trip of
//     the reference evaluator (moveref_test.go) leaves: the probed processors
//     at the end of their home lists, and one MovesEvaluated tick.
//   - Per-clique count changes accumulate in an overlay row per touched
//     direction. A direction's new width is the maximum of its count row with
//     the overlay applied, over the whole row: a move can take the flow that
//     held the maximum and add another clique's in the same breath.
//   - A pair is priced once, from the new widths of both its directions (an
//     untouched one reads dirW), into links and both switches' degree. A
//     self-loop direction (pathological seed routes only) is priced as
//     localCost prices the pair (a,a) — its width once, its quad twice — and
//     stays out of the degrees, as foldWidth keeps it out of sumW.
//   - Each flow is stated at most once per evaluation, and leaves its whole
//     route before it joins anything. A route that crosses one direction
//     twice leaves it once, as dirDel's Has guard counts it.
//   - Between evaluations the scratch is all-zero and its lists are empty, so
//     it survives pooling across kernels; slot and deg follow growStride.

// wiDir is one pipe direction a pending what-if touches.
type wiDir struct {
	from, to int32
	rev      int32 // 1 + index of the reverse direction's entry, 0 if untouched
	w        int32 // width with the overlay applied; set by wiDelta
}

// whatIf is the evaluator's scratch: the change stated so far.
type whatIf struct {
	slot []int32 // direction -> 1 + index in dirs, 0 if untouched
	dirs []wiDir
	ov   []int32 // per-clique count deltas of dirs[k] at [k·nc, (k+1)·nc)
	deg  []int64 // switch -> pending change of its pair-width sum
	sws  []int   // switches with a deg entry; repeats allowed
	hops int
}

// wiTouch adds sign to the overlay count of every clique holding fi on the
// (from,to) direction.
func (s *state) wiTouch(from, to, fi int, sign int32) {
	wi, nc := &s.wi, len(s.cliques)
	pi := from*s.stride + to
	k := int(wi.slot[pi])
	if k == 0 {
		rev := wi.slot[to*s.stride+from]
		wi.dirs = append(wi.dirs, wiDir{from: int32(from), to: int32(to), rev: rev})
		k = len(wi.dirs)
		wi.slot[pi] = int32(k)
		if rev != 0 {
			wi.dirs[rev-1].rev = int32(k)
		}
		if need := k * nc; need > len(wi.ov) {
			wi.ov = append(wi.ov, make([]int32, need-len(wi.ov))...)
		}
	}
	row := wi.ov[(k-1)*nc : k*nc]
	for _, c := range s.flowCliques[fi] {
		row[c] += sign
	}
}

// wiLeave takes flow fi off every direction of its current route.
func (s *state) wiLeave(fi int) {
	r := s.routes[fi]
	s.wi.hops -= len(r) - 1
hops:
	for i := 1; i < len(r); i++ {
		for j := 1; j < i; j++ {
			if r[j-1] == r[i-1] && r[j] == r[i] {
				continue hops
			}
		}
		s.wiTouch(r[i-1], r[i], fi, -1)
	}
}

// wiJoin puts flow fi, which has left its route, on the hop (from,to).
func (s *state) wiJoin(fi, from, to int) {
	s.wi.hops++
	s.wiTouch(from, to, fi, 1)
}

// wiRehome states that fi is rerouted directly between switches a and b.
func (s *state) wiRehome(fi, a, b int) {
	s.wiLeave(fi)
	if a != b {
		s.wiJoin(fi, a, b)
	}
}

// wiDelta prices the stated change, with one processor moving from switch
// `from` to switch `to` (both -1: none moves), and clears the scratch.
func (s *state) wiDelta(from, to int) int {
	wi, nc := &s.wi, len(s.cliques)
	links, quad := 0, 0
	for k := range wi.dirs {
		e := &wi.dirs[k]
		a, b := int(e.from), int(e.to)
		pi := a*s.stride + b
		wi.slot[pi] = 0
		row := s.boundCnt[:nc] // no row yet: all counts zero, as portBound leaves these
		if at := int(s.rowAt[pi]); at != 0 {
			row = s.counts[at-1 : at-1+nc]
		}
		ov := wi.ov[k*nc : (k+1)*nc]
		w, dq := int32(0), 0
		for c, n := range row {
			if d := ov[c]; d != 0 {
				ov[c] = 0
				dq += int(d) * int(2*n+d) // (n+d)² − n²
				n += d
			}
			w = max(w, n)
		}
		e.w = w
		if a == b {
			links += int(w - s.dirW[pi])
			quad += 2 * dq
			continue
		}
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
		pen = s.wiExcess(from, -1) + s.wiExcess(to, 1)
	}
	for _, sw := range wi.sws {
		if wi.deg[sw] != 0 {
			pen += s.wiExcess(sw, 0)
		}
	}
	hops := wi.hops
	wi.dirs, wi.sws, wi.hops = wi.dirs[:0], wi.sws[:0], 0
	return pen*costPenaltyWeight + links*costLinkWeight + quad*costQuadWeight + hops*costHopWeight
}

// wiExcess is the change of switch sw's constraint excess under its pending
// width-sum change and dn more processors; it consumes the deg entry.
func (s *state) wiExcess(sw, dn int) int {
	n := len(s.swProcs[sw])
	deg := n + int(s.sumW[sw])
	d := int(s.wi.deg[sw])
	s.wi.deg[sw] = 0
	return s.excess(deg+dn+d, n+dn) - s.excess(deg, n)
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

// probeMove returns the cost delta of moving p to switch `to` with its flows
// rerouted directly (step 7's "assuming direct routes").
func (s *state) probeMove(p, to int) int {
	from := s.home[p]
	for _, fi := range s.procFlows[p] {
		f := s.flows[fi]
		a, b := s.home[f.Src], s.home[f.Dst]
		if f.Src == p {
			a = to
		}
		if f.Dst == p {
			b = to
		}
		s.wiRehome(fi, a, b)
	}
	s.procToEnd(p)
	s.stats.MovesEvaluated++
	return s.wiDelta(from, to)
}

// probeSwap returns the cost delta of exchanging the homes of p and q with
// both processors' flows rerouted directly. No switch's processor count moves.
func (s *state) probeSwap(p, q int) int {
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
			s.wiRehome(fi, a, b)
		}
	}
	s.procToEnd(p)
	s.procToEnd(q)
	s.stats.MovesEvaluated++
	return s.wiDelta(-1, -1)
}
