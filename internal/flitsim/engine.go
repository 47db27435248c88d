package flitsim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/topology"
)

// engine is the event-driven simulation core. It produces results
// byte-identical to the cycle-stepping reference engine (the test oracle in engine_ref_test.go) but
// runs far faster on real traces by:
//
//   - fast-forwarding e.now across provably idle gaps (long NAS compute
//     phases, link pipeline transit, deadlock backoff) instead of spinning
//     empty cycles, and across steady wormhole streaming and round-robin
//     arbitration, where a state that provably repeats every p ≤ 8 cycles
//     is applied K whole periods at once — see nextCycle for the wake-up
//     invariants and period for the repeat test;
//   - stepping only what can act: each phase of a cycle walks a worklist
//     the events maintain — channels with an unrouted head (allocate),
//     processors with flits to eject, NIs with a queue (inject), NIs whose
//     script op is due (stepScripts) — in ascending index order, the order
//     the reference scans everything in;
//   - keying hot state off dense slices (message-ID-indexed packet arena
//     and readyAt, channel-ID-indexed input-used stamps) instead of maps,
//     with generation stamps replacing per-cycle map clears, and naming
//     packets, channels and VCs by index in every per-cycle record (flit,
//     inflightFlit, move), so none holds a pointer;
//   - recycling all per-simulation state (fabric slabs, scripts, packet
//     arena, NI states, eligible-VC buffers) through a sync.Pool so
//     steady-state simulation and harness sweeps allocate ~nothing per
//     cycle.
type engine struct {
	fb     *fabric
	cfg    Config
	router router
	pat    *model.Pattern

	fab     fabric      // the pooled fabric simulate builds, fb's target
	scripts scriptArena // the pooled script buffers

	nis        []*niState
	niArena    []niState
	pktArena   []packet  // message-ID-indexed packets, the IDs flits carry
	allPackets []*packet // creation order, for deterministic scans
	readyAt    []int64   // message ID -> cycle its recv may complete, -1 unknown
	now        int64
	kills      int
	victims    int // distinct packets ever killed (first-kill events)
	vcStalls   int64
	flitHops   int64

	latSum int64
	latMax int64
	latN   int

	// inputUsed[ch.id] == usedStamp marks the input channel as consumed by
	// this cycle's switch allocation; bumping the stamp replaces clearing.
	inputUsed []int64
	usedStamp int64

	// Aggregate occupancy counters driving the cycle-skip decision. They
	// are maintained incrementally and never consulted for results.
	inflightCount int   // flits on wires
	nextArrival   int64 // lower bound on the earliest inflight arrival
	buffered      int   // flits sitting in VC buffers
	undelivered   int   // posted network packets not yet fully received

	// netPackets holds the undelivered packets with at least one flit
	// sent, in arbitrary order (swap-free linear removal). Only
	// order-independent reductions (the recovery wake-up minimum) may
	// scan it; victim selection scans allPackets in creation order.
	netPackets []*packet

	// routedTo[ch.id] lists the input VCs currently allocated to output
	// channel ch (v.out.ch == ch), sorted by vcBuf.seq so forward()
	// considers them in the reference engine's arbitration order.
	routedTo [][]*vcBuf
	// liveCh lists channels with flits on the wire, so arrival delivery
	// never scans idle channels. Order is irrelevant: a channel delivers
	// only into its own VC buffers, so per-channel delivery is
	// independent, and the arrival-minimum reduction is commutative.
	liveCh []*channel
	chLive []bool
	// bufInCh[ch.id] counts flits buffered across ch's VCs, letting
	// allocate/eject skip empty channels.
	bufInCh []int
	// routedChs holds the IDs of channels with a non-empty routedTo list,
	// sorted ascending — i.e. fb.channels order, which switch allocation
	// must follow because moving a flit consumes its input channel for
	// every later output in the same cycle. fwdChs is the per-cycle
	// snapshot forward() iterates while routeOut edits the live list.
	routedChs []int
	fwdChs    []int

	eligible []*vcBuf // forward() scratch

	// Worklists (DESIGN.md §8), each walked in ascending index order.
	// allocCh marks the switch-bound channels that may hold an unrouted
	// head at a VC front: a head delivery sets the bit, and allocate clears
	// it once no such VC is left. ejectP marks the processors whose
	// ejection channel may hold flits, injectP exactly the NIs with a
	// non-empty queue. wake[p] is the earliest cycle NI p's started op can
	// complete (farFuture: never without an ejection), wakeMin the least
	// of them, and running counts the NIs whose script is not done.
	allocCh bitset
	ejectP  bitset
	injectP bitset
	wake    []int64
	wakeMin int64
	running int

	// Periodic-state detection (period, DESIGN.md §8). hist holds one
	// record per processed cycle, oldest first, for at most the last
	// maxPeriod consecutive ones; histAt is the cycle of the newest. moves
	// logs their flit transfers in execution order. eventAt is the last
	// cycle with a structural event. got[c.id*maxPeriod:][:maxPeriod]
	// rings the last maxPeriod flits delivered off channel c (nGot[c.id]
	// in all), each stamped with its delivery cycle net of leapt, the
	// cycles leap applied so far — so a leap shifts the stamps without
	// touching them. stepped counts the cycles run() processed in full —
	// the rest of e.now was skipped or leapt — and is read only by tests.
	hist    []cycleRec
	histAt  int64
	moves   []move
	eventAt int64
	got     []inflightFlit
	nGot    []int
	leapt   int64
	stepped int64
}

// maxPeriod bounds the period of a repeating state: the product of the
// candidate counts of the arbiters that rotate together.
const maxPeriod = 8

// cycleRec is the history record of one processed cycle: where its moves
// start in engine.moves, and the occupancy counters and vcStalls as the
// cycle began — that is, as the cycle before it ended.
type cycleRec struct {
	from               int
	buffered, inflight int
	stalls             int64
}

// move is one flit transfer of message pkt: a send onto channel c toward VC
// to (an injection when c leaves a processor, else a switch traversal), or,
// with to −1, an ejection from channel c. from is the VC popped (−1 for an
// injection), rr is c.rr before the move, and elig the number of input VCs
// forward arbitrated among. Channels are named by ID and VCs by fabric-wide
// index, so the record holds no pointer.
type move struct {
	c, pkt   int32
	from, to int32
	rr, elig int
}

// bitset is a set of small non-negative integers, one bit each.
type bitset []uint64

func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }
func (b bitset) del(i int) { b[i>>6] &^= 1 << (i & 63) }

// next returns the least member ≥ i, or −1 if there is none. Walking
// i = next(0), next(i+1), … visits the members in ascending order and sees
// every removal or addition made ahead of i on the way.
func (b bitset) next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if word := b[w] >> (i & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 | bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// sized returns b with room for n members and none set.
func (b bitset) sized(n int) bitset { return resized(b, (n+63)>>6) }

// farFuture is the nextArrival sentinel when no flit is on a wire.
const farFuture = int64(1) << 62

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// simulate runs the pattern on net's fabric under cfg and the router rt,
// and returns aggregate results. Deterministic: identical inputs produce
// identical results.
func simulate(pat *model.Pattern, rt router, net *topology.Network, cfg Config) (Result, error) {
	e := enginePool.Get().(*engine)
	e.fab.build(net, cfg)
	e.reset(pat, rt, &e.fab)
	err := e.run()
	res := e.results()
	e.release()
	return res, err
}

// reset prepares a pooled engine for one simulation, pre-sizing every dense
// slice from the pattern and fabric instead of growing by append.
func (e *engine) reset(pat *model.Pattern, rt router, fb *fabric) {
	e.fb, e.cfg, e.router, e.pat = fb, fb.cfg, rt, pat
	e.now, e.kills, e.victims, e.vcStalls, e.flitHops = 0, 0, 0, 0, 0
	e.latSum, e.latMax, e.latN = 0, 0, 0
	e.usedStamp = 0
	e.eventAt, e.stepped, e.leapt = 0, 0, 0 // cycle 0 has no predecessor: an event
	e.hist, e.moves = e.hist[:0], e.moves[:0]
	e.inflightCount, e.buffered, e.undelivered = 0, 0, 0
	e.nextArrival = farFuture
	e.netPackets = e.netPackets[:0]

	nMsg := len(pat.Messages)
	if cap(e.pktArena) < nMsg {
		e.pktArena = make([]packet, nMsg)
	} else {
		e.pktArena = e.pktArena[:nMsg]
	}
	if cap(e.allPackets) < nMsg {
		e.allPackets = make([]*packet, 0, nMsg)
	}
	if cap(e.readyAt) < nMsg {
		e.readyAt = make([]int64, nMsg)
	} else {
		e.readyAt = e.readyAt[:nMsg]
	}
	for i := range e.readyAt {
		e.readyAt[i] = -1
	}
	nCh := len(fb.channels)
	if cap(e.inputUsed) < nCh {
		e.inputUsed = make([]int64, nCh)
	} else {
		e.inputUsed = e.inputUsed[:nCh]
		clear(e.inputUsed)
	}
	if cap(e.bufInCh) < nCh {
		e.bufInCh = make([]int, nCh)
	} else {
		e.bufInCh = e.bufInCh[:nCh]
		clear(e.bufInCh)
	}
	if cap(e.nGot) < nCh {
		e.nGot = make([]int, nCh)
		e.got = make([]inflightFlit, nCh*maxPeriod)
	} else {
		e.nGot = e.nGot[:nCh]
		clear(e.nGot)
		e.got = e.got[:nCh*maxPeriod]
	}
	if cap(e.chLive) < nCh {
		e.chLive = make([]bool, nCh)
	} else {
		e.chLive = e.chLive[:nCh]
		clear(e.chLive)
	}
	e.liveCh = e.liveCh[:0]
	if cap(e.routedTo) < nCh {
		rt := make([][]*vcBuf, nCh)
		copy(rt, e.routedTo)
		e.routedTo = rt
	} else {
		e.routedTo = e.routedTo[:nCh]
	}
	for i := range e.routedTo {
		e.routedTo[i] = e.routedTo[i][:0]
	}
	e.routedChs = e.routedChs[:0]

	e.allocCh = e.allocCh.sized(nCh)
	e.ejectP = e.ejectP.sized(pat.Procs)
	e.injectP = e.injectP.sized(pat.Procs)

	scripts := e.scripts.build(pat)
	if cap(e.niArena) < pat.Procs {
		e.niArena = make([]niState, pat.Procs)
		e.nis = make([]*niState, pat.Procs)
		e.wake = make([]int64, pat.Procs)
	} else {
		e.niArena = e.niArena[:pat.Procs]
		e.nis = e.nis[:pat.Procs]
		e.wake = e.wake[:pat.Procs]
	}
	// Every NI is due at cycle 0, which starts its first op.
	clear(e.wake)
	e.wakeMin, e.running = 0, 0
	for p := range e.niArena {
		ni := &e.niArena[p]
		q := ni.queue[:0]
		*ni = niState{proc: p, script: scripts[p], queue: q}
		e.nis[p] = ni
		if !ni.done() {
			e.running++
		}
	}
}

// release drops everything a pooled engine could keep alive (fabric, routes,
// observers) while preserving slice capacity, then returns it to the pool.
func (e *engine) release() {
	for i := range e.pktArena {
		rc := e.pktArena[i].routeCh
		clear(rc)
		e.pktArena[i] = packet{routeCh: rc[:0]}
	}
	clear(e.allPackets)
	e.allPackets = e.allPackets[:0]
	clear(e.eligible)
	e.eligible = e.eligible[:0]
	clear(e.netPackets)
	e.netPackets = e.netPackets[:0]
	e.moves = e.moves[:0]
	e.hist = e.hist[:0]
	clear(e.liveCh)
	e.liveCh = e.liveCh[:0]
	for i := range e.routedTo {
		clear(e.routedTo[i])
		e.routedTo[i] = e.routedTo[i][:0]
	}
	for i := range e.niArena {
		ni := &e.niArena[i]
		clear(ni.queue)
		q := ni.queue[:0]
		*ni = niState{queue: q}
	}
	e.fab.release()
	e.fb, e.router, e.pat = nil, nil, nil
	e.cfg = Config{}
	enginePool.Put(e)
}

// run is the main loop: process the current cycle, then jump e.now to the
// next cycle at which any state transition is possible.
func (e *engine) run() error {
	for e.now = 0; ; {
		if e.now > e.cfg.MaxCycles {
			if e.cfg.Obs != nil {
				obs.Emit(e.cfg.Obs, "flitsim.wedged",
					fmt.Sprintf("%s on %s exceeded %d cycles", e.pat.Name, e.fb.net.Name, e.cfg.MaxCycles))
			}
			// Return the partial results alongside the error so
			// callers can diagnose what wedged.
			return fmt.Errorf("flitsim: %s on %s exceeded %d cycles (likely livelock)",
				e.pat.Name, e.fb.net.Name, e.cfg.MaxCycles)
		}
		e.stepped++
		e.record()
		e.deliverArrivals()
		e.stepScripts()
		e.inject()
		e.allocate()
		e.forward()
		e.ejectFlits()
		if e.now%32 == 0 {
			e.recoverDeadlocks()
		}
		if e.finished() {
			return nil
		}
		e.now = e.nextCycle()
	}
}

// record opens the history record of the cycle about to be processed. A gap
// since the last record (skipped cycles) restarts the history: the skipped
// cycles were no-ops, so the state as this cycle begins is still the state
// after cycle e.now−1, but what moved in the cycles before the gap is not.
func (e *engine) record() {
	if len(e.hist) == 0 || e.now != e.histAt+1 {
		e.hist, e.moves = e.hist[:0], e.moves[:0]
	} else if len(e.hist) == maxPeriod {
		copy(e.hist, e.hist[1:])
		e.hist = e.hist[:maxPeriod-1]
		// Drop the moves no record reaches once they outnumber the live
		// ones, so the copy is amortised O(1) per move.
		if lo := e.hist[0].from; 2*lo > len(e.moves) {
			n := copy(e.moves, e.moves[lo:])
			e.moves = e.moves[:n]
			for i := range e.hist {
				e.hist[i].from -= lo
			}
		}
	}
	e.histAt = e.now
	e.hist = append(e.hist, cycleRec{from: len(e.moves), buffered: e.buffered, inflight: e.inflightCount, stalls: e.vcStalls})
}

// nextCycle returns the earliest cycle after e.now that must be processed in
// full. Every cycle strictly in between is provably either a reference-engine
// no-op, and is skipped, or — when period reports that the last p cycles
// repeat — a copy of one of them, and leap applies whole periods at once; the
// remainder of the last period is stepped. The thresholds (DESIGN.md §8):
//
//  1. A flit buffered anywhere: switch allocation, forwarding, or ejection
//     may act every cycle, so no skip is possible — unless the state is
//     periodic, when what they do next period is what they did last period.
//  2. An NI queue head past its retransmit backoff (or a stale queue entry
//     awaiting its defensive dequeue): injection may act every cycle. In a
//     periodic state the head either is blocked on a VC or credit that no
//     repeat frees, or injects m body flits a period until its tail is due.
//  3. The earliest in-flight arrival (lower-bounded by e.nextArrival); the
//     arrivals of a period are part of what repeats.
//  4. The earliest script wake-up: busyUntil for compute/send overheads,
//     max(readyAt, opStart+recvOverhead) for a posted receive.
//  5. The earliest deadlock-recovery tick (multiple of 32) at which some
//     in-network packet will have exceeded its doubling stall tolerance. A
//     packet that moved in the last period moves in every repeat and never
//     stalls; the others bound the leap exactly as they bound a skip.
//
// Any event that would change one of these bounds (an arrival filling a
// buffer, a kill resetting lastProgress) can itself only happen at a cycle
// returned here, so the fast-forward is exact, not heuristic.
func (e *engine) nextCycle() int64 {
	horizon := e.cfg.MaxCycles + 1
	p, tailK := e.period()
	steady := p > 0
	if e.buffered > 0 && !steady {
		return e.now + 1
	}
	next := horizon
	if !steady && e.inflightCount > 0 && e.nextArrival < next {
		next = e.nextArrival
	}
	for p := e.injectP.next(0); p >= 0; p = e.injectP.next(p + 1) {
		head := e.nis[p].queue[0]
		if head.delivered || head.sent >= head.flits {
			// Stale entry: inject dequeues it next cycle.
			return e.now + 1
		}
		if head.notBefore > e.now {
			if head.notBefore < next {
				next = head.notBefore
			}
		} else if !steady {
			return e.now + 1
		}
	}
	// A receive whose message is not yet ejected has no wake: an ejection
	// (an arrival event) sets it.
	if e.wakeMin < next {
		next = e.wakeMin
	}
	base := int64(e.cfg.DeadlockTimeout)
	for _, pkt := range e.netPackets {
		if steady && pkt.lastProgress > e.now-int64(p) {
			continue
		}
		shift := pkt.retries
		if shift > 6 {
			shift = 6
		}
		t := pkt.lastProgress + (base << shift) + 1
		if t <= e.now {
			t = e.now + 1
		}
		// Recovery only scans on multiples of 32.
		t = (t + 31) &^ 31
		if t < next {
			next = t
		}
	}
	if next > horizon {
		next = horizon
	}
	if next <= e.now {
		next = e.now + 1
	}
	if !steady {
		return next
	}
	k := min((next-1-e.now)/int64(p), tailK)
	if k > 0 {
		e.leap(p, k)
	}
	return e.now + k*int64(p) + 1
}

// period returns the smallest p ≤ maxPeriod such that the cycle just
// processed left the engine in the state cycle e.now−p left, shifted by p
// cycles — which makes the next p cycles, and every period after them up to
// nextCycle's first threshold, repeat the last p move for move — or 0. With
// it comes the number of whole periods the injecting NIs can repeat before
// one of them would inject a tail. The conditions (DESIGN.md §8 has the proof
// and the cases each one excludes):
//
//   - no structural event in the last p cycles (eventAt): no VC allocated or
//     released, no head or tail flit moved, no script op completed, no post,
//     dequeue or kill;
//   - the occupancy counters where they were p cycles ago, and every VC
//     balanced over the period (repeats);
//   - every live link pipeline a shifted copy of itself p cycles ago
//     (pipeRepeats);
//   - every round-robin pointer equivalent for the arbitrations ahead
//     (repeats);
//   - p−1 ≤ DeadlockTimeout, so a packet that moves once a period is never
//     a recovery victim.
func (e *engine) period() (int, int64) {
	n := len(e.hist)
	for p := 1; p <= n && p-1 <= e.cfg.DeadlockTimeout; p++ {
		if e.eventAt > e.now-int64(p) {
			break
		}
		// hist[n-p] began the period: its counters are those p cycles ago.
		if r := &e.hist[n-p]; r.buffered != e.buffered || r.inflight != e.inflightCount {
			continue
		}
		if tailK, ok := e.repeats(p); ok {
			return p, tailK
		}
	}
	return 0, 0
}

// repeats checks the last p cycles' moves, in three passes over them that
// leave the tallies zero: count, check, clear. It establishes
//
//   - per-VC balance: as many flits sent toward each VC as delivered into it
//     (engine.got) as popped from it. The counters of period show sends,
//     deliveries and pops total the same, so no VC outside the sent-toward
//     set can have been delivered to or popped either;
//   - rr: a pick among L > 1 candidates reads rr mod L. A channel's rr
//     advances by one per send, so a switch-to-switch channel's picks
//     repeat only if the period's sends n ≡ 0 mod every such L. An
//     ejection channel's rr is also reset by ejectFlits to the VC after the
//     one drained — a function of the state, as the channel never holds two
//     flits when it scans — so a pick after a reset in the period repeats,
//     and one before it needs rr's change over the period ≡ 0 mod L;
//
// and returns the number of whole periods before an injecting NI's tail:
// its packet injects one flit per injection move in the period.
func (e *engine) repeats(p int) (tailK int64, ok bool) {
	w := e.moves[e.hist[len(e.hist)-p].from:]
	chs, vcs := e.fb.channels, e.fb.vcs
	ok = true
	for i := range w {
		m := &w[i]
		if m.to >= 0 {
			vcs[m.to].nTo++
		}
		if m.from >= 0 {
			vcs[m.from].nPop++
		}
		c := chs[m.c]
		if c.nMoves == 0 {
			c.rrAt = m.rr // rr as the period began
		}
		c.nMoves++
		if m.to < 0 {
			c.rrAt = -1 // reset: later picks read what this period set
		} else if m.elig > 1 && c.rrAt >= 0 && (c.rr-c.rrAt)%m.elig != 0 {
			ok = false
		}
	}
	tailK = farFuture
	for i := range w {
		m := &w[i]
		c := chs[m.c]
		if ok && c.src.kind == endProc {
			pkt := &e.pktArena[m.pkt]
			tailK = min(tailK, int64(pkt.flits-1-pkt.sent)/int64(c.nMoves))
		}
		if ok && m.to >= 0 {
			if v := &vcs[m.to]; v.nTo > 0 {
				if v.nPop != v.nTo || e.fills(v, p) != v.nTo {
					ok = false
				}
				v.nTo = 0 // checked
			}
		}
	}
	for i := range w {
		m := &w[i]
		if m.to >= 0 {
			vcs[m.to].nTo = 0
		}
		if m.from >= 0 {
			vcs[m.from].nPop = 0
		}
		chs[m.c].nMoves = 0
	}
	if !ok {
		return 0, false
	}
	for _, c := range e.liveCh {
		if !e.pipeRepeats(c, p) {
			return 0, false
		}
	}
	return tailK, true
}

// delivered returns channel c's delivery ring, its delivery count, and how
// many of the newest deliveries fall in the last p cycles — at most one a
// cycle, so the ring holds them all.
func (e *engine) delivered(c *channel, p int) (ring []inflightFlit, n, ng int) {
	ring, n = e.got[c.id*maxPeriod:][:maxPeriod], e.nGot[c.id]
	since := e.now - int64(p) - e.leapt
	for ng < min(n, maxPeriod) && ring[(n-1-ng)%maxPeriod].at > since {
		ng++
	}
	return ring, n, ng
}

// fills counts the deliveries into v in the last p cycles.
func (e *engine) fills(v *vcBuf, p int) int {
	ring, n, ng := e.delivered(v.ch, p)
	fills := 0
	for i := 1; i <= ng; i++ {
		if ring[(n-i)%maxPeriod].to == v.id {
			fills++
		}
	}
	return fills
}

// pipeRepeats reports whether live channel c's pipeline is a shifted copy of
// itself p cycles ago. The pipeline then held the flits delivered in the
// last p cycles followed by those still in flight that were already sent:
// read as one list X sorted by arrival, the in-flight list must equal the
// prefix of X arriving by now+delay−p, each flit p cycles later.
func (e *engine) pipeRepeats(c *channel, p int) bool {
	ring, n, ng := e.delivered(c, p)
	x := func(i int) inflightFlit {
		if i < ng {
			g := ring[(n-ng+i)%maxPeriod]
			g.at += e.leapt
			return g
		}
		return c.inflight[i-ng]
	}
	for i, inf := range c.inflight {
		if old := x(i); inf.at != old.at+int64(p) || inf.f != old.f || inf.to != old.to {
			return false
		}
	}
	// Nothing else arrives by now+delay−p in X: its shifted copy would be
	// due in the pipeline, and is not there.
	return ng == 0 || x(len(c.inflight)).at > e.now+int64(c.delay-p)
}

// leap applies k repeats of the period of p cycles just processed, ending at
// cycle e.now + k·p: every counter a move advances advances k times, every
// in-flight stamp shifts by k·p, and buffers, credits and ownership stay as
// they are. Each mover's lastProgress becomes the cycle of its last move in
// the final copy — not its end, which it may not have moved in. Ejection rr
// stays: a period that sends to an ejection channel also drains it (the flit
// arrives a cycle later and is ejected at once), and rr after a drain is a
// function of the state. The history shifts with the leap: its records now
// stand for the final copy.
// nextArrival stays a lower bound, which is all deliverArrivals asks of it.
func (e *engine) leap(p int, k int64) {
	shift := k * int64(p)
	n := len(e.hist)
	var sends int64
	for j := n - p; j < n; j++ {
		at := e.now - int64(n-1-j) + shift
		end := len(e.moves)
		if j+1 < n {
			end = e.hist[j+1].from
		}
		for _, m := range e.moves[e.hist[j].from:end] {
			pkt := &e.pktArena[m.pkt]
			pkt.lastProgress = at
			if m.to < 0 {
				pkt.arrived += int(k)
				continue
			}
			sends++
			c := e.fb.channels[m.c]
			c.carried += k
			switch {
			case c.src.kind == endProc:
				pkt.sent += int(k)
			case c.dst.kind == endSwitch:
				c.rr += int(k)
			}
		}
	}
	e.flitHops += k * sends
	stalls := k * (e.vcStalls - e.hist[n-p].stalls)
	e.vcStalls += stalls
	for _, c := range e.liveCh {
		for i := range c.inflight {
			c.inflight[i].at += shift
		}
	}
	e.leapt += shift
	e.histAt += shift
	// Records older than the period describe cycles before the copies, not
	// the ones now preceding the last: drop them.
	from := e.hist[n-p].from
	e.moves = e.moves[:copy(e.moves, e.moves[from:])]
	e.hist = e.hist[:copy(e.hist, e.hist[n-p:])]
	for i := range e.hist {
		e.hist[i].from -= from
		e.hist[i].stalls += stalls
	}
}

// addInflight places a flit on a channel's wire, maintaining the arrival
// lower bound the cycle-skip relies on.
func (e *engine) addInflight(c *channel, inf inflightFlit) {
	c.inflight = append(c.inflight, inf)
	e.inflightCount++
	if inf.at < e.nextArrival {
		e.nextArrival = inf.at
	}
	if !e.chLive[c.id] {
		e.chLive[c.id] = true
		e.liveCh = append(e.liveCh, c)
	}
}

// routeIn records that input VC v was allocated output VC v.out,
// insertion-sorting by seq to preserve reference arbitration order.
func (e *engine) routeIn(v *vcBuf) {
	e.eventAt = e.now
	id := v.out.ch.id
	lst := append(e.routedTo[id], v)
	i := len(lst) - 1
	for i > 0 && lst[i-1].seq > v.seq {
		lst[i] = lst[i-1]
		i--
	}
	lst[i] = v
	e.routedTo[id] = lst
	if len(lst) == 1 {
		chs := append(e.routedChs, id)
		j := len(chs) - 1
		for j > 0 && chs[j-1] > id {
			chs[j] = chs[j-1]
			j--
		}
		chs[j] = id
		e.routedChs = chs
	}
}

// routeOut removes v from its output channel's routed list; call before
// clearing v.out.
func (e *engine) routeOut(v *vcBuf) {
	id := v.out.ch.id
	lst := e.routedTo[id]
	for i, x := range lst {
		if x == v {
			copy(lst[i:], lst[i+1:])
			lst[len(lst)-1] = nil
			e.routedTo[id] = lst[:len(lst)-1]
			break
		}
	}
	if len(e.routedTo[id]) == 0 {
		chs := e.routedChs
		for i, x := range chs {
			if x == id {
				copy(chs[i:], chs[i+1:])
				e.routedChs = chs[:len(chs)-1]
				return
			}
		}
	}
}

// dropNet removes a delivered or killed packet from the in-network list.
func (e *engine) dropNet(pkt *packet) {
	lst := e.netPackets
	for i, x := range lst {
		if x == pkt {
			lst[i] = lst[len(lst)-1]
			lst[len(lst)-1] = nil
			e.netPackets = lst[:len(lst)-1]
			return
		}
	}
}

func (e *engine) deliverArrivals() {
	if e.inflightCount == 0 || e.now < e.nextArrival {
		return
	}
	next := farFuture
	live := e.liveCh[:0]
	for _, c := range e.liveCh {
		kept := c.inflight[:0]
		for _, inf := range c.inflight {
			if inf.at <= e.now {
				to := &e.fb.vcs[inf.to]
				to.buf = append(to.buf, inf.f)
				to.inTransit--
				e.got[c.id*maxPeriod+e.nGot[c.id]%maxPeriod] = inflightFlit{f: inf.f, to: inf.to, at: e.now - e.leapt}
				e.nGot[c.id]++
				e.inflightCount--
				e.buffered++
				e.bufInCh[c.id]++
				switch {
				case c.dst.kind == endProc:
					e.ejectP.set(c.dst.id)
				case inf.f.head:
					// A head arrives at an empty VC (its owner's
					// predecessor left with its tail), so it is the
					// front, and it is unrouted.
					e.allocCh.set(c.id)
				}
			} else {
				if inf.at < next {
					next = inf.at
				}
				kept = append(kept, inf)
			}
		}
		c.inflight = kept
		if len(kept) > 0 {
			live = append(live, c)
		} else {
			e.chLive[c.id] = false
		}
	}
	e.liveCh = live
	e.nextArrival = next
}

// stepScripts advances every processor's script until it blocks. Only the
// NIs whose wake has come can advance — stepOne on any other returns false
// and changes nothing — so on most cycles no NI is due and nothing is read
// past wakeMin. The due ones are stepped in NI order, as the reference
// steps every NI, so the packets they post are created in its order.
func (e *engine) stepScripts() {
	if e.now < e.wakeMin {
		return
	}
	e.wakeMin = farFuture
	for p, w := range e.wake {
		if w <= e.now {
			ni := e.nis[p]
			for !ni.done() && e.stepOne(ni) {
				e.eventAt = e.now
				if ni.done() {
					e.running--
				}
			}
			w = e.wakeOf(ni)
			e.wake[p] = w
		}
		e.wakeMin = min(e.wakeMin, w)
	}
}

// wakeOf returns the earliest cycle the NI's started op can complete:
// busyUntil for compute and send, max(readyAt, opStart+recvOverhead) for a
// receive whose message was ejected, farFuture for one whose message was
// not and for a finished script.
func (e *engine) wakeOf(ni *niState) int64 {
	if ni.done() {
		return farFuture
	}
	o := &ni.script[ni.pc]
	if o.kind != opRecv {
		return ni.busyUntil
	}
	ready := e.readyAt[o.msg]
	if ready < 0 {
		return farFuture
	}
	return max(ready, ni.opStart+recvOverhead)
}

// setReady records that message msgID's receive may complete from cycle
// at, and wakes its receiver if the receive is the op it waits on.
func (e *engine) setReady(msgID int, at int64) {
	e.readyAt[msgID] = at
	d := e.pat.Messages[msgID].Dst
	ni := e.nis[d]
	if ni.done() {
		return
	}
	if o := &ni.script[ni.pc]; o.kind == opRecv && o.msg == msgID {
		e.wake[d] = e.wakeOf(ni)
		e.wakeMin = min(e.wakeMin, e.wake[d])
	}
}

// stepOne attempts to complete the NI's current operation this cycle,
// reporting whether the script advanced.
func (e *engine) stepOne(ni *niState) bool {
	o := &ni.script[ni.pc]
	switch o.kind {
	case opCompute:
		if !ni.started {
			ni.started = true
			ni.busyUntil = e.now + o.cycles
		}
		if e.now < ni.busyUntil {
			return false
		}
	case opSend:
		if !ni.started {
			ni.started = true
			ni.opStart = e.now
			ni.busyUntil = e.now + sendOverhead
		}
		if e.now < ni.busyUntil {
			return false
		}
		e.postSend(ni, o.msg)
		ni.comm += e.now - ni.opStart
	case opRecv:
		if !ni.started {
			ni.started = true
			ni.opStart = e.now
		}
		ready := e.readyAt[o.msg]
		if ready < 0 || e.now < ready || e.now < ni.opStart+recvOverhead {
			return false
		}
		ni.comm += e.now - ni.opStart
	}
	ni.pc++
	ni.started = false
	return true
}

// postSend takes the packet from the message-indexed arena and queues it at
// the NI (or delivers it immediately for a self-message, which never enters
// the network).
func (e *engine) postSend(ni *niState, msgID int) {
	m := e.pat.Messages[msgID]
	flits := 1 + (m.Bytes+flitBytes-1)/flitBytes
	pkt := &e.pktArena[msgID]
	rc := pkt.routeCh[:0]
	*pkt = packet{
		msgID:        msgID,
		src:          m.Src,
		dst:          m.Dst,
		flits:        flits,
		postedAt:     e.now,
		lastProgress: e.now,
		routeCh:      rc,
	}
	e.allPackets = append(e.allPackets, pkt)
	if m.Src == m.Dst {
		pkt.delivered = true
		pkt.deliveredAt = e.now
		e.setReady(msgID, e.now)
		return
	}
	if err := e.router.prepare(e.fb, pkt); err != nil {
		// Unroutable packets indicate a construction bug; deliver a
		// poisoned result by stalling forever would be worse, so halt
		// loudly via panic — run's callers validate routes first.
		panic(err)
	}
	e.undelivered++
	ni.queue = append(ni.queue, pkt)
	e.injectP.set(ni.proc)
}

// dequeue drops the head of the NI's queue, shifting the rest down so the
// queue keeps its backing array and later posts do not reallocate it.
func (e *engine) dequeue(ni *niState) {
	n := copy(ni.queue, ni.queue[1:])
	ni.queue[n] = nil
	ni.queue = ni.queue[:n]
	if n == 0 {
		e.injectP.del(ni.proc)
	}
}

// inject streams flits of each queued NI's head packet into its injection
// channel, in NI order.
func (e *engine) inject() {
	for p := e.injectP.next(0); p >= 0; p = e.injectP.next(p + 1) {
		ni := e.nis[p]
		pkt := ni.queue[0]
		if pkt.delivered || pkt.sent >= pkt.flits {
			// Fully streamed or already delivered: nothing left to
			// inject; drop the entry (defensive — see kill).
			e.dequeue(ni)
			e.eventAt = e.now
			continue
		}
		if e.now < pkt.notBefore {
			continue
		}
		ch := e.fb.inject[ni.proc]
		if pkt.injVC == nil {
			v := ch.freeVC()
			if v == nil {
				continue
			}
			v.owner = pkt
			pkt.injVC = v
			e.eventAt = e.now
		}
		v := pkt.injVC
		if !v.space(e.cfg.BufFlits) {
			continue
		}
		f := flit{pkt: int32(pkt.msgID), head: pkt.sent == 0, tail: pkt.sent == pkt.flits-1}
		if f.head || f.tail {
			e.eventAt = e.now
		}
		e.moves = append(e.moves, move{c: int32(ch.id), pkt: f.pkt, from: -1, to: v.id})
		pkt.sent++
		if pkt.sent == 1 {
			e.netPackets = append(e.netPackets, pkt)
		}
		v.inTransit++
		e.addInflight(ch, inflightFlit{f: f, to: v.id, at: e.now + int64(ch.delay)})
		ch.carried++
		e.flitHops++
		pkt.lastProgress = e.now
		if pkt.sent == pkt.flits {
			e.dequeue(ni)
		}
	}
}

// allocate performs routing and VC allocation for every input VC whose
// front flit is a packet head without a downstream VC yet. Only channels in
// allocCh can hold one, and they are visited in channel order, as the
// reference scans every channel: an allocation claims a VC a later channel's
// head might have taken.
func (e *engine) allocate() {
	if e.buffered == 0 {
		return
	}
	for id := e.allocCh.next(0); id >= 0; id = e.allocCh.next(id + 1) {
		if !e.allocateAt(e.fb.channels[id]) {
			e.allocCh.del(id)
		}
	}
}

// allocateAt allocates for the unrouted heads at the fronts of switch-bound
// channel c's VCs, and reports whether one is left stalled.
func (e *engine) allocateAt(c *channel) (stalled bool) {
	sw := c.dst.id
	for _, v := range c.vcs {
		if v.owner == nil || v.out != nil || len(v.buf) == 0 || !v.buf[0].head {
			continue
		}
		pkt := v.owner
		if int(e.fb.net.Home[pkt.dst]) == sw {
			ej := e.fb.eject[pkt.dst]
			if fv := ej.freeVC(); fv != nil {
				fv.owner = pkt
				v.out = fv
				e.routeIn(v)
			} else {
				e.vcStalls++
				stalled = true
			}
			continue
		}
		for _, cand := range e.router.candidates(e.fb, pkt, sw) {
			if fv := cand.ch.freeVCOf(cand.vcs); fv != nil {
				fv.owner = pkt
				v.out = fv
				e.routeIn(v)
				break
			}
		}
		if v.out == nil {
			e.vcStalls++
			stalled = true
		}
	}
	return stalled
}

// forward moves one flit per output channel per cycle, respecting one flit
// per input physical channel per cycle (switch allocation).
func (e *engine) forward() {
	if e.buffered == 0 {
		return
	}
	e.usedStamp++
	stamp := e.usedStamp
	eligible := e.eligible[:0]
	// Only channels with routed input VCs can move a flit; routedChs is
	// sorted so they are visited in fb.channels order. Iterate a snapshot
	// because the tail-pop routeOut below edits the live list. Routed
	// lists only ever cover switch-sourced channels (outputs of VC
	// allocation), so injection channels never appear here.
	fwd := append(e.fwdChs[:0], e.routedChs...)
	e.fwdChs = fwd
	for _, id := range fwd {
		c := e.fb.channels[id]
		// Input VCs routed to this channel, in reference arbitration
		// order (routedTo is seq-sorted), filtered down to the ones that
		// can actually move a flit this cycle.
		eligible = eligible[:0]
		for _, v := range e.routedTo[c.id] {
			if e.inputUsed[v.ch.id] != stamp && len(v.buf) > 0 && v.out.space(e.cfg.BufFlits) {
				eligible = append(eligible, v)
			}
		}
		if len(eligible) == 0 {
			continue
		}
		v := eligible[c.rr%len(eligible)]
		f := v.pop()
		e.moves = append(e.moves, move{c: int32(id), pkt: f.pkt, from: v.id, to: v.out.id, rr: c.rr, elig: len(eligible)})
		c.rr++
		if f.head || f.tail {
			e.eventAt = e.now
		}
		e.buffered--
		e.bufInCh[v.ch.id]--
		out := v.out
		out.inTransit++
		e.addInflight(c, inflightFlit{f: f, to: out.id, at: e.now + int64(c.delay)})
		c.carried++
		e.flitHops++
		e.pktArena[f.pkt].lastProgress = e.now
		e.inputUsed[v.ch.id] = stamp
		if f.tail {
			e.routeOut(v)
			v.owner = nil
			v.out = nil
		}
	}
	e.eligible = eligible
}

// ejectFlits absorbs one flit per processor per cycle from its ejection
// channel. Only processors in ejectP can have one, and they are visited in
// processor order, as the reference scans every processor.
func (e *engine) ejectFlits() {
	if e.buffered == 0 {
		return
	}
	for p := e.ejectP.next(0); p >= 0; p = e.ejectP.next(p + 1) {
		ch := e.fb.eject[p]
		if e.bufInCh[ch.id] == 0 {
			e.ejectP.del(p) // drained by a kill
			continue
		}
		for i := 0; i < len(ch.vcs); i++ {
			v := ch.vcs[(ch.rr+i)%len(ch.vcs)]
			if len(v.buf) == 0 {
				continue
			}
			f := v.pop()
			pkt := &e.pktArena[f.pkt]
			e.moves = append(e.moves, move{c: int32(ch.id), pkt: f.pkt, from: v.id, to: -1, rr: ch.rr})
			ch.rr = (ch.rr + i + 1) % len(ch.vcs)
			if f.head || f.tail {
				e.eventAt = e.now
			}
			e.buffered--
			e.bufInCh[ch.id]--
			if e.bufInCh[ch.id] == 0 {
				e.ejectP.del(p)
			}
			pkt.arrived++
			pkt.lastProgress = e.now
			if f.tail {
				v.owner = nil
				pkt.delivered = true
				pkt.deliveredAt = e.now
				e.setReady(pkt.msgID, e.now+recvOverhead)
				e.undelivered--
				e.dropNet(pkt)
				lat := e.now - pkt.postedAt
				e.latSum += lat
				e.latN++
				if lat > e.latMax {
					e.latMax = lat
				}
			}
			break
		}
	}
}

// recoverDeadlocks applies regressive recovery: packets that made no
// progress for DeadlockTimeout cycles are killed — their flits drained from
// every buffer and wire — and retransmitted from the source after a backoff.
func (e *engine) recoverDeadlocks() {
	if len(e.netPackets) == 0 {
		return
	}
	// Kill a single victim per scan — the packet stalled longest, ties
	// to the earliest-created. Killing every stalled packet at once
	// would recreate symmetric deadlocks verbatim after the common
	// backoff; removing one victim breaks the cycle and lets the rest
	// drain (regressive recovery, Section 4.2).
	var victim *packet
	for _, pkt := range e.allPackets {
		if pkt.delivered || pkt.sent == 0 {
			continue
		}
		// A packet's tolerance doubles with each recovery: heavy but
		// live congestion (a head legitimately waiting out several
		// long wormholes) must not be mistaken for deadlock forever,
		// or the kill-retransmit storm itself livelocks the network.
		shift := pkt.retries
		if shift > 6 {
			shift = 6
		}
		timeout := int64(e.cfg.DeadlockTimeout) << shift
		if e.now-pkt.lastProgress <= timeout {
			continue
		}
		if victim == nil || pkt.lastProgress < victim.lastProgress {
			victim = pkt
		}
	}
	if victim != nil {
		e.kill(victim)
	}
}

func (e *engine) kill(pkt *packet) {
	e.eventAt = e.now
	for _, c := range e.fb.channels {
		kept := c.inflight[:0]
		for _, inf := range c.inflight {
			if int(inf.f.pkt) == pkt.msgID {
				e.fb.vcs[inf.to].inTransit--
				e.inflightCount--
				continue
			}
			kept = append(kept, inf)
		}
		c.inflight = kept
		for _, v := range c.vcs {
			if v.owner == pkt {
				e.buffered -= len(v.buf)
				e.bufInCh[c.id] -= len(v.buf)
				v.clearBuf()
				v.owner = nil
				if v.out != nil {
					e.routeOut(v)
					v.out = nil
				}
			}
		}
	}
	// Re-enqueue unless the packet is still queued anywhere: a victim can
	// sit at position >= 1 after an earlier kill prepended another packet
	// ahead of it, and prepending it again would create a duplicate whose
	// ghost copy later streams past its flit count and wedges the NI.
	ni := e.nis[pkt.src]
	queued := false
	for _, q := range ni.queue {
		if q == pkt {
			queued = true
			break
		}
	}
	if !queued {
		ni.queue = append(ni.queue, nil)
		copy(ni.queue[1:], ni.queue)
		ni.queue[0] = pkt
		e.injectP.set(ni.proc)
	}
	pkt.sent = 0
	pkt.arrived = 0
	pkt.injVC = nil
	if pkt.retries == 0 {
		e.victims++
	}
	pkt.retries++
	pkt.notBefore = e.now + int64(64*pkt.retries)
	pkt.lastProgress = e.now
	e.dropNet(pkt)
	e.kills++
	if e.cfg.Obs != nil {
		e.cfg.Obs.Event("flitsim.kill",
			fmt.Sprintf("cycle=%d msg=%d src=%d dst=%d retries=%d", e.now, pkt.msgID, pkt.src, pkt.dst, pkt.retries))
	}
}

// finished reports whether every packet is delivered, every script done and
// every NI queue empty.
func (e *engine) finished() bool {
	return e.undelivered == 0 && e.running == 0 && e.injectP.next(0) < 0
}

func (e *engine) results() Result {
	e.emitObs()
	r := Result{
		ExecCycles:  e.now,
		PerProcComm: make([]int64, len(e.nis)),
		Messages:    e.latN,
		MaxLatency:  e.latMax,
		FlitHops:    e.flitHops,
		Kills:       e.kills,
		Victims:     e.victims,
		VCStalls:    e.vcStalls,
	}
	var commSum int64
	for i, ni := range e.nis {
		r.PerProcComm[i] = ni.comm
		commSum += ni.comm
	}
	if len(e.nis) > 0 {
		r.CommCycles = float64(commSum) / float64(len(e.nis))
	}
	if e.latN > 0 {
		r.MeanLatency = float64(e.latSum) / float64(e.latN)
	}
	if e.now > 0 {
		for _, c := range e.fb.channels {
			if c.src.kind == endSwitch && c.dst.kind == endSwitch {
				if u := float64(c.carried) / float64(e.now); u > r.PeakLinkUtil {
					r.PeakLinkUtil = u
				}
			}
		}
	}
	for _, c := range e.fb.channels {
		r.EnergyUnits += float64(c.carried) * (energySwitch + energyWire*float64(c.delay))
	}
	return r
}

// emitObs publishes the run's flitsim.* counters. The engine is fully
// deterministic, so every counter here is identical across repeated runs
// and — when invoked from harness cells — across worker counts.
func (e *engine) emitObs() {
	o := e.cfg.Obs
	if o == nil {
		return
	}
	obs.Count(o, "flitsim.runs", 1)
	obs.Count(o, "flitsim.cycles", e.now)
	obs.Count(o, "flitsim.flits", e.flitHops)
	obs.Count(o, "flitsim.messages", int64(e.latN))
	obs.Count(o, "flitsim.vc_stalls", e.vcStalls)
	obs.Count(o, "flitsim.retries", int64(e.kills))
	obs.Count(o, "flitsim.victims", int64(e.victims))
}
