package flitsim

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
)

// alloc is one output option for a blocked head: a channel and the virtual
// channels the packet may claim on it (nil means any VC).
type alloc struct {
	ch  *channel
	vcs []int
}

// router selects output channels for packets at switches. There are two:
// sourceRouted replays a routing table (the mesh, crossbar and generated
// networks), and tfar adapts on the torus and ring.
type router interface {
	// candidates returns the output options a packet at switch sw may
	// take next, in preference order. It is not called at the packet's
	// destination switch (ejection is handled by the engine). The
	// returned slice may alias fabric-owned scratch: it is valid only
	// until the next candidates or channelsBetween call on fb.
	candidates(fb *fabric, pkt *packet, sw int) []alloc
	// prepare fills per-packet routing state (source routes) before
	// injection; may return an error if the packet is unroutable.
	prepare(fb *fabric, pkt *packet) error
}

// tfar is true fully adaptive routing on a torus — the paper's torus
// baseline — built with Duato's methodology: any minimal productive
// direction (wrap links included) may be taken on the adaptive virtual
// channels (1..VCs-1), while VC 0 forms a deadlock-free escape subnetwork
// running dimension-order routing (routing.DORNext) that never uses wrap
// links. A blocked head may always fall back to the escape path, so the
// torus cannot deadlock; the engine's timeout recovery remains as a
// backstop for irregular source-routed networks.
type tfar struct {
	grid topology.Grid
}

func (tfar) prepare(*fabric, *packet) error { return nil }

func (t tfar) candidates(fb *fabric, pkt *packet, sw int) []alloc {
	r, c := t.grid.Coord(topology.SwitchID(sw))
	dst := fb.net.Home[pkt.dst]
	dr, dc := t.grid.Coord(dst)
	var nextsArr [2]topology.SwitchID
	nexts := nextsArr[:0]
	if step, ok := ringNext(c, dc, t.grid.Cols); ok {
		nexts = append(nexts, t.grid.At(r, step))
	}
	if step, ok := ringNext(r, dr, t.grid.Rows); ok {
		nexts = append(nexts, t.grid.At(step, c))
	}
	adaptive := fb.adScratch[:0]
	for _, n := range nexts {
		adaptive = append(adaptive, fb.channelsBetween(topology.SwitchID(sw), n)...)
	}
	fb.adScratch = adaptive
	// Adaptivity: prefer the output with the most spare buffering.
	sort.SliceStable(adaptive, func(i, j int) bool {
		return adaptive[i].freeSpace(fb.cfg.BufFlits) > adaptive[j].freeSpace(fb.cfg.BufFlits)
	})
	out := fb.allocScratch[:0]
	for _, ch := range adaptive {
		out = append(out, alloc{ch: ch, vcs: fb.adaptiveVCs})
	}
	// Escape: mesh-DOR on VC 0.
	if next, ok := routing.DORNext(t.grid, topology.SwitchID(sw), dst); ok {
		for _, ch := range fb.channelsBetween(topology.SwitchID(sw), next) {
			out = append(out, alloc{ch: ch, vcs: fb.escapeVC})
		}
	}
	fb.allocScratch = out
	return out
}

// ringNext returns the next coordinate one minimal step around a ring of
// size k toward the target, honoring the absence of wrap pipes on rings of
// length <= 2.
func ringNext(from, to, k int) (int, bool) {
	if from == to {
		return 0, false
	}
	fwd := ((to - from) + k) % k
	bwd := ((from - to) + k) % k
	if fwd <= bwd {
		if from+1 < k {
			return from + 1, true
		}
		if k > 2 {
			return 0, true
		}
		return from - 1, true
	}
	if from-1 >= 0 {
		return from - 1, true
	}
	if k > 2 {
		return k - 1, true
	}
	return from + 1, true
}

// sourceRouted replays a routing table: each flow follows its one route
// (switch sequence and per-hop physical link), the paper's source-based
// routing function F (Definition 6). It routes the generated networks and
// the mesh (routing.DORMesh) and crossbar (routing.CrossbarTable)
// baselines.
type sourceRouted struct {
	table *routing.Table
}

// prepare resolves the packet's route to one channel per hop, so
// candidates does no lookup. A link the pipe lacks (unassigned, or past its
// width) is link 0; a hop with no pipe has no channel, and a packet
// reaching it stalls.
func (s sourceRouted) prepare(fb *fabric, pkt *packet) error {
	f := model.F(pkt.src, pkt.dst)
	r, ok := s.table.Routes[f]
	if !ok {
		return fmt.Errorf("flitsim: no source route for flow %v", f)
	}
	pkt.routeSw = r.Switches
	hops := pkt.routeCh[:0]
	for i, li := range r.Links {
		a, b := int(r.Switches[i]), int(r.Switches[i+1])
		ch, ok := fb.link[[3]int{a, b, li}]
		if !ok {
			ch = fb.link[[3]int{a, b, 0}]
		}
		hops = append(hops, ch)
	}
	pkt.routeCh = hops
	return nil
}

func (sourceRouted) candidates(fb *fabric, pkt *packet, sw int) []alloc {
	for i, at := range pkt.routeSw[:len(pkt.routeCh)] {
		if int(at) == sw {
			if pkt.routeCh[i] == nil {
				return nil
			}
			out := append(fb.allocScratch[:0], alloc{ch: pkt.routeCh[i]})
			fb.allocScratch = out
			return out
		}
	}
	return nil
}
