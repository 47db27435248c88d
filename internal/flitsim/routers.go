package flitsim

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Alloc is one output option for a blocked head: a channel and the virtual
// channels the packet may claim on it (nil means any VC).
type Alloc struct {
	Ch  *channel
	VCs []int
}

// Router selects output channels for packets at switches.
type Router interface {
	// Candidates returns the output options a packet at switch sw may
	// take next, in preference order. It is not called at the packet's
	// destination switch (ejection is handled by the engine). The
	// returned slice may alias fabric-owned scratch: it is valid only
	// until the next Candidates or channelsBetween call on fb.
	Candidates(fb *fabric, pkt *packet, sw int) []Alloc
	// Prepare fills per-packet routing state (source routes) before
	// injection; may return an error if the packet is unroutable.
	Prepare(fb *fabric, pkt *packet) error
	// Name labels the router in reports.
	Name() string
}

// anyVC wraps channels as any-VC allocation options in fb's scratch slice.
func anyVC(fb *fabric, chs []*channel) []Alloc {
	out := fb.allocScratch[:0]
	for _, c := range chs {
		out = append(out, Alloc{Ch: c})
	}
	fb.allocScratch = out
	return out
}

// DOR is deterministic dimension-order (X then Y) routing on a mesh — the
// paper's mesh baseline. Deadlock-free by construction.
type DOR struct {
	Grid topology.Grid
}

func (DOR) Name() string { return "dor-mesh" }

func (DOR) Prepare(*fabric, *packet) error { return nil }

func (d DOR) Candidates(fb *fabric, pkt *packet, sw int) []Alloc {
	next, ok := meshDORNext(d.Grid, sw, int(fb.net.Home[pkt.dst]))
	if !ok {
		return nil
	}
	return anyVC(fb, fb.channelsBetween(topology.SwitchID(sw), next))
}

// meshDORNext computes the X-then-Y dimension-order next hop on a grid,
// never using wrap links.
func meshDORNext(g topology.Grid, sw, dst int) (topology.SwitchID, bool) {
	r, c := g.Coord(topology.SwitchID(sw))
	dr, dc := g.Coord(topology.SwitchID(dst))
	switch {
	case c < dc:
		return g.At(r, c+1), true
	case c > dc:
		return g.At(r, c-1), true
	case r < dr:
		return g.At(r+1, c), true
	case r > dr:
		return g.At(r-1, c), true
	}
	return 0, false
}

// TFAR is true fully adaptive routing on a torus — the paper's torus
// baseline — built with Duato's methodology: any minimal productive
// direction (wrap links included) may be taken on the adaptive virtual
// channels (1..VCs-1), while VC 0 forms a deadlock-free escape subnetwork
// running dimension-order routing that never uses wrap links. A blocked
// head may always fall back to the escape path, so the torus cannot
// deadlock; the engine's timeout recovery remains as a backstop for
// irregular source-routed networks.
type TFAR struct {
	Grid topology.Grid
}

func (TFAR) Name() string { return "tfar-torus" }

func (TFAR) Prepare(*fabric, *packet) error { return nil }

func (t TFAR) Candidates(fb *fabric, pkt *packet, sw int) []Alloc {
	r, c := t.Grid.Coord(topology.SwitchID(sw))
	dst := int(fb.net.Home[pkt.dst])
	dr, dc := t.Grid.Coord(topology.SwitchID(dst))
	var nextsArr [2]topology.SwitchID
	nexts := nextsArr[:0]
	if step, ok := ringNext(c, dc, t.Grid.Cols); ok {
		nexts = append(nexts, t.Grid.At(r, step))
	}
	if step, ok := ringNext(r, dr, t.Grid.Rows); ok {
		nexts = append(nexts, t.Grid.At(step, c))
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
		out = append(out, Alloc{Ch: ch, VCs: fb.adaptiveVCs})
	}
	// Escape: mesh-DOR on VC 0.
	if next, ok := meshDORNext(t.Grid, sw, dst); ok {
		for _, ch := range fb.channelsBetween(topology.SwitchID(sw), next) {
			out = append(out, Alloc{Ch: ch, VCs: fb.escapeVC})
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

// SourceRouted follows the per-flow routes (switch sequence and per-hop
// physical link) produced by the synthesizer — the paper's routing for
// generated topologies.
type SourceRouted struct {
	Table *routing.Table
}

func (SourceRouted) Name() string { return "source" }

func (s SourceRouted) Prepare(fb *fabric, pkt *packet) error {
	f := model.F(pkt.src, pkt.dst)
	r, ok := s.Table.Routes[f]
	if !ok {
		return fmt.Errorf("flitsim: no source route for flow %v", f)
	}
	pkt.routeSw = r.Switches
	if cap(pkt.routeLink) >= len(r.Links) {
		pkt.routeLink = pkt.routeLink[:len(r.Links)]
	} else {
		pkt.routeLink = make([]int, len(r.Links))
	}
	for i, li := range r.Links {
		if li == routing.UnassignedLink {
			li = 0
		}
		pkt.routeLink[i] = li
	}
	return nil
}

func (s SourceRouted) Candidates(fb *fabric, pkt *packet, sw int) []Alloc {
	next, linkIdx, ok := pkt.routeNext(sw)
	if !ok {
		return nil
	}
	pipe, ok2 := fb.net.PipeBetween(topology.SwitchID(sw), next)
	if !ok2 {
		return nil
	}
	if linkIdx >= pipe.Width {
		linkIdx = 0
	}
	a, b := sw, int(next)
	if ch, ok3 := fb.link[[3]int{a, b, linkIdx}]; ok3 {
		out := append(fb.allocScratch[:0], Alloc{Ch: ch})
		fb.allocScratch = out
		return out
	}
	return nil
}

// XBar routes on the single-switch crossbar: every packet ejects at the one
// switch, so no switch-to-switch candidates ever exist.
type XBar struct{}

func (XBar) Name() string                             { return "crossbar" }
func (XBar) Prepare(*fabric, *packet) error           { return nil }
func (XBar) Candidates(*fabric, *packet, int) []Alloc { return nil }
