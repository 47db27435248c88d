package flitsim

import (
	"fmt"

	"repro/internal/topology"
)

// flit is the unit of flow control. It holds no pointer, so copying one
// through a buffer, a pipeline or the engine's history needs no GC write
// barrier.
type flit struct {
	pkt  int32 // message ID, which indexes the engine's packet arena
	head bool
	tail bool
}

// vcBuf is one virtual channel's receive buffer, owned exclusively by a
// packet from head arrival to tail departure (wormhole switching).
type vcBuf struct {
	ch *channel
	// id is the VC's fabric-wide index, ch.id × VCs + idx: its place in
	// fabric.vcs and how flits in flight and the engine's history name it.
	id  int32
	idx int
	// seq orders this VC among all input VCs of the switch its channel
	// feeds: (position of ch within inOf[dst]) * VCs + idx. The engine's
	// routed-VC lists sort by it so switch arbitration scans VCs in
	// exactly the reference engine's nested-loop order.
	seq       int
	buf       []flit
	arr       []flit // buf's full backing array, for base resets
	owner     *packet
	out       *vcBuf // downstream VC allocated for this packet
	inTransit int    // flits on the wire toward this buffer
	// nTo and nPop tally the sends toward and pops from this VC over a
	// candidate period: engine.repeats' scratch, zero between its calls.
	nTo, nPop int
}

// space reports whether one more flit may be sent toward this buffer
// (credit check; credit round-trip latency is folded into link delay).
func (v *vcBuf) space(cap int) bool { return len(v.buf)+v.inTransit < cap }

// pop dequeues the front flit, shifting the remainder back to the start of
// the backing array — a handful of 8-byte moves — so a steadily streaming
// buffer never drifts past its slot of the flit slab and appends never
// reallocate.
func (v *vcBuf) pop() flit {
	f := v.buf[0]
	n := len(v.buf) - 1
	copy(v.arr[:n], v.buf[1:])
	v.buf = v.arr[:n]
	return f
}

// clearBuf drops every buffered flit (deadlock-recovery kill).
func (v *vcBuf) clearBuf() { v.buf = v.arr[:0] }

func (v *vcBuf) String() string { return fmt.Sprintf("%v.vc%d", v.ch, v.idx) }

// inflightFlit is a flit in a link's delay pipeline, bound for the VC whose
// fabric-wide index is to. Like flit, it holds no pointer.
type inflightFlit struct {
	at int64
	f  flit
	to int32
}

// channel is one direction of one physical link, with per-VC buffers at the
// receiving end and a fixed pipeline delay.
type channel struct {
	id       int
	src, dst endpoint
	linkIdx  int // index within the pipe (for source-routed link selection)
	delay    int
	vcs      []*vcBuf
	inflight []inflightFlit
	carried  int64 // flits transmitted (stats)
	rr       int   // round-robin arbitration pointer
	// nMoves and rrAt are engine.repeats' scratch: nMoves is zero between
	// its calls, and rrAt is set by the first move it counts.
	nMoves, rrAt int
}

func (c *channel) String() string { return fmt.Sprintf("%v->%v#%d", c.src, c.dst, c.linkIdx) }

// fabric is the simulated hardware: all channels plus endpoint indexes.
// Channels, VCs, VC buffers and link pipelines are carved out of one slab
// each, which build reuses when the fabric is rebuilt for another network.
type fabric struct {
	net *topology.Network
	cfg Config

	channels []*channel
	// vcs holds every VC by fabric-wide index (vcBuf.id).
	vcs []vcBuf
	// outOf lists channels leaving a switch, inOf channels entering it,
	// both indexed densely by switch ID.
	outOf [][]*channel
	inOf  [][]*channel
	// inject[p] and eject[p] are processor p's NI channels.
	inject []*channel
	eject  []*channel
	// link[(a,b,idx)] resolves a specific directed link.
	link map[[3]int]*channel

	// The slabs the channels point into: the channels themselves, each
	// channel's VC pointers, the VC buffers and the link pipelines.
	chSlab []channel
	vcPtrs []*vcBuf
	flits  []flit
	pipes  []inflightFlit

	// Router scratch, reused across candidates calls. A fabric is owned by
	// one simulation goroutine; slices returned by channelsBetween and
	// candidates are valid only until the next call (callers consume
	// immediately).
	btwScratch   []*channel
	adScratch    []*channel
	allocScratch []alloc
	adaptiveVCs  []int // 1..VCs-1, shared by every TFAR candidate set
	escapeVC     []int // {0}
}

// resized returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// emptied returns l with length n and every list empty, keeping the lists'
// capacity.
func emptied(l [][]*channel, n int) [][]*channel {
	if cap(l) < n {
		l = append(l[:cap(l)], make([][]*channel, n-cap(l))...)
	}
	l = l[:n]
	for i := range l {
		clear(l[i])
		l[i] = l[i][:0]
	}
	return l
}

// build lays the fabric of net out under cfg, reusing the slabs and lists
// of the network it was last built for.
func (fb *fabric) build(net *topology.Network, cfg Config) {
	nSw := net.NumSwitches()
	fb.net, fb.cfg = net, cfg
	fb.outOf = emptied(fb.outOf, nSw)
	fb.inOf = emptied(fb.inOf, nSw)
	if fb.link == nil {
		fb.link = make(map[[3]int]*channel)
	} else {
		clear(fb.link)
	}
	if fb.escapeVC == nil {
		fb.escapeVC = []int{0}
	}
	fb.adaptiveVCs = fb.adaptiveVCs[:0]
	for v := 1; v < cfg.VCs; v++ {
		fb.adaptiveVCs = append(fb.adaptiveVCs, v)
	}
	if len(fb.adaptiveVCs) == 0 {
		// With one VC the adaptive set is nil, which freeVCOf reads as
		// "any VC".
		fb.adaptiveVCs = nil
	}
	delayOf := func(a, b topology.SwitchID) int {
		if cfg.LinkDelay == nil {
			return 1
		}
		if d := cfg.LinkDelay(a, b); d > 1 {
			return d
		}
		return 1
	}
	// Size the slabs. A channel sends at most one flit a cycle and each is
	// in flight for delay cycles, so delay+1 pipeline slots are never
	// outgrown.
	nCh, nPipe := 2*net.Procs, 4*net.Procs
	for _, pipe := range net.Pipes {
		nCh += 2 * pipe.Width
		nPipe += 2 * pipe.Width * (delayOf(pipe.A, pipe.B) + 1)
	}
	nVC := nCh * cfg.VCs
	fb.chSlab = resized(fb.chSlab, nCh)
	fb.channels = resized(fb.channels, nCh)[:0]
	fb.vcs = resized(fb.vcs, nVC)
	fb.vcPtrs = resized(fb.vcPtrs, nVC)
	fb.flits = resized(fb.flits, nVC*cfg.BufFlits)
	fb.pipes = resized(fb.pipes, nPipe)
	fb.inject = resized(fb.inject, net.Procs)
	fb.eject = resized(fb.eject, net.Procs)
	pipeAt := 0
	add := func(src, dst endpoint, linkIdx, delay int) *channel {
		id := len(fb.channels)
		c := &fb.chSlab[id]
		*c = channel{
			id:       id,
			src:      src,
			dst:      dst,
			linkIdx:  linkIdx,
			delay:    delay,
			inflight: fb.pipes[pipeAt : pipeAt : pipeAt+delay+1],
			vcs:      fb.vcPtrs[id*cfg.VCs : (id+1)*cfg.VCs : (id+1)*cfg.VCs],
		}
		pipeAt += delay + 1
		// Each VC's buffer is a slot of the flit slab; pop() keeps buf
		// inside it.
		for i := range c.vcs {
			vid := id*cfg.VCs + i
			slot := fb.flits[vid*cfg.BufFlits : vid*cfg.BufFlits : (vid+1)*cfg.BufFlits]
			v := &fb.vcs[vid]
			*v = vcBuf{ch: c, id: int32(vid), idx: i, buf: slot, arr: slot}
			c.vcs[i] = v
		}
		fb.channels = append(fb.channels, c)
		if src.kind == endSwitch {
			fb.outOf[src.id] = append(fb.outOf[src.id], c)
		}
		if dst.kind == endSwitch {
			fb.inOf[dst.id] = append(fb.inOf[dst.id], c)
			pos := len(fb.inOf[dst.id]) - 1
			for i, v := range c.vcs {
				v.seq = pos*cfg.VCs + i
			}
		}
		return c
	}
	for _, pipe := range net.Pipes {
		d := delayOf(pipe.A, pipe.B)
		for i := 0; i < pipe.Width; i++ {
			ab := add(swEnd(pipe.A), swEnd(pipe.B), i, d)
			ba := add(swEnd(pipe.B), swEnd(pipe.A), i, d)
			fb.link[[3]int{int(pipe.A), int(pipe.B), i}] = ab
			fb.link[[3]int{int(pipe.B), int(pipe.A), i}] = ba
		}
	}
	for p := 0; p < net.Procs; p++ {
		home := net.Home[p]
		fb.inject[p] = add(procEnd(p), swEnd(home), 0, 1)
		fb.eject[p] = add(swEnd(home), procEnd(p), 0, 1)
	}
}

// release drops what the fabric could keep alive past its simulation — the
// network, the configuration's observer and link-delay function — keeping
// every slab for the next build.
func (fb *fabric) release() {
	fb.net, fb.cfg = nil, Config{}
	clear(fb.link)
}

// channelsBetween returns all channels from switch a to switch b. The
// returned slice is fabric-owned scratch, valid until the next call.
func (fb *fabric) channelsBetween(a, b topology.SwitchID) []*channel {
	out := fb.btwScratch[:0]
	for _, c := range fb.outOf[int(a)] {
		if c.dst == swEnd(b) {
			out = append(out, c)
		}
	}
	fb.btwScratch = out
	return out
}

// freeVC returns the first unowned VC of the channel, or nil.
func (c *channel) freeVC() *vcBuf {
	for _, v := range c.vcs {
		if v.owner == nil {
			return v
		}
	}
	return nil
}

// freeVCOf returns the first unowned VC among the allowed indices (nil
// means any).
func (c *channel) freeVCOf(allowed []int) *vcBuf {
	if allowed == nil {
		return c.freeVC()
	}
	for _, idx := range allowed {
		if idx < len(c.vcs) && c.vcs[idx].owner == nil {
			return c.vcs[idx]
		}
	}
	return nil
}

// empty reports whether every VC buffer of the channel is empty.
func (c *channel) empty() bool {
	for _, v := range c.vcs {
		if len(v.buf) > 0 {
			return false
		}
	}
	return true
}

// freeSpace totals the spare buffer slots across the channel's VCs — the
// adaptivity metric used by TFAR output selection.
func (c *channel) freeSpace(cap int) int {
	total := 0
	for _, v := range c.vcs {
		total += cap - len(v.buf) - v.inTransit
	}
	return total
}

// packet is one message in flight.
type packet struct {
	msgID    int
	src, dst int
	flits    int
	// routeSw is the source route's switch sequence and routeCh the
	// channel of each of its hops, resolved once by sourceRouted.prepare;
	// both are empty under tfar.
	routeSw []topology.SwitchID
	routeCh []*channel

	sent, arrived int
	injVC         *vcBuf
	delivered     bool
	postedAt      int64
	deliveredAt   int64
	lastProgress  int64
	notBefore     int64
	retries       int
	// seq is the packet's creation order (postSend), deadlock victim
	// selection's tie-break.
	seq int
}
