package flitsim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
)

// refEngine is the original cycle-stepping simulation core, retained
// verbatim as the behavioural reference for the event-driven engine in
// engine.go. It advances one cycle at a time — even through idle gaps — and
// keys hot state off maps, which makes it slow but simple to audit. The
// equivalence suite (equivalence_test.go) pins the event-driven engine to
// byte-identical Results and Observer counters against this one; keep any
// semantic change mirrored in both.
type refEngine struct {
	fb     *fabric
	cfg    Config
	router router
	pat    *model.Pattern

	nis        []*niState
	packets    map[int]*packet // by message ID
	allPackets []*packet       // creation order, for deterministic scans
	readyAt    map[int]int64   // message ID -> cycle its recv may complete
	now        int64
	kills      int
	victims    int // distinct packets ever killed (first-kill events)
	vcStalls   int64
	flitHops   int64

	latSum int64
	latMax int64
	latN   int

	inputUsed map[*channel]bool
}

// simulateReference runs the pattern on the network under the given router
// with the cycle-stepping reference engine. Deterministic: identical inputs
// produce identical results, and the event-driven simulate must return the
// same Result and emit the same Observer counters and events.
func simulateReference(pat *model.Pattern, rt router, fb *fabric) (Result, error) {
	e := &refEngine{
		fb:        fb,
		cfg:       fb.cfg,
		router:    rt,
		pat:       pat,
		packets:   make(map[int]*packet),
		readyAt:   make(map[int]int64),
		inputUsed: make(map[*channel]bool),
	}
	scripts := new(scriptArena).build(pat)
	for p := 0; p < pat.Procs; p++ {
		e.nis = append(e.nis, &niState{proc: p, script: scripts[p]})
	}
	for e.now = 0; ; e.now++ {
		if e.now > e.cfg.MaxCycles {
			if e.cfg.Obs != nil {
				obs.Emit(e.cfg.Obs, "flitsim.wedged",
					fmt.Sprintf("%s on %s exceeded %d cycles", pat.Name, fb.net.Name, e.cfg.MaxCycles))
			}
			// Return the partial results alongside the error so
			// callers can diagnose what wedged.
			return e.results(), fmt.Errorf("flitsim: %s on %s exceeded %d cycles (likely livelock)",
				pat.Name, fb.net.Name, e.cfg.MaxCycles)
		}
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
			break
		}
	}
	return e.results(), nil
}

func (e *refEngine) deliverArrivals() {
	for _, c := range e.fb.channels {
		kept := c.inflight[:0]
		for _, inf := range c.inflight {
			if inf.at <= e.now {
				to := &e.fb.vcs[inf.to]
				to.buf = append(to.buf, inf.f)
				to.inTransit--
			} else {
				kept = append(kept, inf)
			}
		}
		c.inflight = kept
	}
}

// stepScripts advances every processor's script until it blocks.
func (e *refEngine) stepScripts() {
	for _, ni := range e.nis {
		for !ni.done() && e.stepOne(ni) {
		}
	}
}

// stepOne attempts to complete the NI's current operation this cycle,
// reporting whether the script advanced.
func (e *refEngine) stepOne(ni *niState) bool {
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
		ready, ok := e.readyAt[o.msg]
		if !ok || e.now < ready || e.now < ni.opStart+recvOverhead {
			return false
		}
		ni.comm += e.now - ni.opStart
	}
	ni.pc++
	ni.started = false
	return true
}

// postSend creates the packet and queues it at the NI (or delivers it
// immediately for a self-message, which never enters the network).
func (e *refEngine) postSend(ni *niState, msgID int) {
	m := e.pat.Messages[msgID]
	flits := 1 + (m.Bytes+flitBytes-1)/flitBytes
	pkt := &packet{
		msgID:        msgID,
		src:          m.Src,
		dst:          m.Dst,
		flits:        flits,
		postedAt:     e.now,
		lastProgress: e.now,
	}
	e.packets[msgID] = pkt
	e.allPackets = append(e.allPackets, pkt)
	if m.Src == m.Dst {
		pkt.delivered = true
		pkt.deliveredAt = e.now
		e.readyAt[msgID] = e.now
		return
	}
	if err := e.router.prepare(e.fb, pkt); err != nil {
		// Unroutable packets indicate a construction bug; deliver a
		// poisoned result by stalling forever would be worse, so halt
		// loudly via panic — run's callers validate routes first.
		panic(err)
	}
	ni.queue = append(ni.queue, pkt)
}

// inject streams flits of each NI's head packet into its injection channel.
func (e *refEngine) inject() {
	for _, ni := range e.nis {
		if len(ni.queue) == 0 {
			continue
		}
		pkt := ni.queue[0]
		if pkt.delivered || pkt.sent >= pkt.flits {
			// Fully streamed or already delivered: nothing left to
			// inject; drop the entry (defensive — see kill).
			ni.queue = ni.queue[1:]
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
		}
		v := pkt.injVC
		if !v.space(e.cfg.BufFlits) {
			continue
		}
		f := flit{pkt: int32(pkt.msgID), head: pkt.sent == 0, tail: pkt.sent == pkt.flits-1}
		pkt.sent++
		v.inTransit++
		ch.inflight = append(ch.inflight, inflightFlit{f: f, to: v.id, at: e.now + int64(ch.delay)})
		ch.carried++
		e.flitHops++
		pkt.lastProgress = e.now
		if pkt.sent == pkt.flits {
			ni.queue = ni.queue[1:]
		}
	}
}

// allocate performs routing and VC allocation for every input VC whose
// front flit is a packet head without a downstream VC yet.
func (e *refEngine) allocate() {
	for _, c := range e.fb.channels {
		if c.dst.kind != endSwitch {
			continue
		}
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
				} else {
					e.vcStalls++
				}
				continue
			}
			for _, cand := range e.router.candidates(e.fb, pkt, sw) {
				if fv := cand.ch.freeVCOf(cand.vcs); fv != nil {
					fv.owner = pkt
					v.out = fv
					break
				}
			}
			if v.out == nil {
				e.vcStalls++
			}
		}
	}
}

// forward moves one flit per output channel per cycle, respecting one flit
// per input physical channel per cycle (switch allocation).
func (e *refEngine) forward() {
	for k := range e.inputUsed {
		delete(e.inputUsed, k)
	}
	for _, c := range e.fb.channels {
		if c.src.kind != endSwitch {
			continue // injection handled separately
		}
		sw := c.src.id
		// Eligible input VCs at this switch targeting this channel.
		var eligible []*vcBuf
		for _, in := range e.fb.inOf[sw] {
			if e.inputUsed[in] {
				continue
			}
			for _, v := range in.vcs {
				if v.out != nil && v.out.ch == c && len(v.buf) > 0 && v.out.space(e.cfg.BufFlits) {
					eligible = append(eligible, v)
				}
			}
		}
		if len(eligible) == 0 {
			continue
		}
		v := eligible[c.rr%len(eligible)]
		c.rr++
		f := v.pop()
		out := v.out
		out.inTransit++
		c.inflight = append(c.inflight, inflightFlit{f: f, to: out.id, at: e.now + int64(c.delay)})
		c.carried++
		e.flitHops++
		e.packets[int(f.pkt)].lastProgress = e.now
		e.inputUsed[v.ch] = true
		if f.tail {
			v.owner = nil
			v.out = nil
		}
	}
}

// ejectFlits absorbs one flit per processor per cycle from its ejection
// channel.
func (e *refEngine) ejectFlits() {
	for p := 0; p < e.fb.net.Procs; p++ {
		ch := e.fb.eject[p]
		for i := 0; i < len(ch.vcs); i++ {
			v := ch.vcs[(ch.rr+i)%len(ch.vcs)]
			if len(v.buf) == 0 {
				continue
			}
			ch.rr = (ch.rr + i + 1) % len(ch.vcs)
			f := v.pop()
			pkt := e.packets[int(f.pkt)]
			pkt.arrived++
			pkt.lastProgress = e.now
			if f.tail {
				v.owner = nil
				pkt.delivered = true
				pkt.deliveredAt = e.now
				e.readyAt[pkt.msgID] = e.now + recvOverhead
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
func (e *refEngine) recoverDeadlocks() {
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

func (e *refEngine) kill(pkt *packet) {
	for _, c := range e.fb.channels {
		kept := c.inflight[:0]
		for _, inf := range c.inflight {
			if int(inf.f.pkt) == pkt.msgID {
				e.fb.vcs[inf.to].inTransit--
				continue
			}
			kept = append(kept, inf)
		}
		c.inflight = kept
		for _, v := range c.vcs {
			if v.owner == pkt {
				v.clearBuf()
				v.owner = nil
				v.out = nil
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
		ni.queue = append([]*packet{pkt}, ni.queue...)
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
	e.kills++
	if e.cfg.Obs != nil {
		e.cfg.Obs.Event("flitsim.kill",
			fmt.Sprintf("cycle=%d msg=%d src=%d dst=%d retries=%d", e.now, pkt.msgID, pkt.src, pkt.dst, pkt.retries))
	}
}

func (e *refEngine) finished() bool {
	for _, ni := range e.nis {
		if !ni.done() || len(ni.queue) > 0 {
			return false
		}
	}
	for _, pkt := range e.allPackets {
		if !pkt.delivered {
			return false
		}
	}
	return true
}

func (e *refEngine) results() Result {
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
func (e *refEngine) emitObs() {
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
