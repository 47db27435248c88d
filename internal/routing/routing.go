// Package routing implements the paper's source-based routing function
// (Definition 6) and the network resource conflict set R (Definition 7).
//
// A route is an ordered switch path plus, for every switch-to-switch hop, the
// index of the physical link used within the pipe — contention is modeled at
// directed-link granularity, so two flows sharing a pipe on different links
// (or opposite directions of one full-duplex link) do not conflict. Injection
// and ejection ports are modeled as dedicated per-processor channels and
// participate in R, faithful to the paper's "single processor per network
// interface" system model.
package routing

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/topology"
)

// Route is the ordered path of a flow: the home switch of the source, any
// intermediate switches, and the home switch of the destination. Links[i]
// selects the physical link within the pipe between Switches[i] and
// Switches[i+1]; UnassignedLink means "link not yet chosen" and is treated
// as link 0 when resources are enumerated.
type Route struct {
	Switches []topology.SwitchID
	Links    []int
}

// UnassignedLink marks a hop whose physical link has not been assigned yet.
const UnassignedLink = -1

// Hops returns the number of switch-to-switch hops.
func (r Route) Hops() int { return len(r.Links) }

// Table is a source-based routing function F: it supplies a single
// deterministic path per flow (Definition 6).
type Table struct {
	Net    *topology.Network
	Routes map[model.Flow]Route
}

// NewTable creates an empty routing table over the network.
func NewTable(net *topology.Network) *Table {
	return &Table{Net: net, Routes: make(map[model.Flow]Route)}
}

// Validate checks that every route is well-formed: endpoints at the flow's
// home switches, consecutive switches joined by a pipe, link indices within
// pipe widths, and no switch revisited (paths are simple).
func (t *Table) Validate() error {
	for f, r := range t.Routes {
		if len(r.Switches) == 0 {
			return fmt.Errorf("routing: flow %v has empty route", f)
		}
		if len(r.Links) != len(r.Switches)-1 {
			return fmt.Errorf("routing: flow %v has %d links for %d switches", f, len(r.Links), len(r.Switches))
		}
		if r.Switches[0] != t.Net.Home[f.Src] {
			return fmt.Errorf("routing: flow %v starts at switch %d, home is %d", f, r.Switches[0], t.Net.Home[f.Src])
		}
		if last := r.Switches[len(r.Switches)-1]; last != t.Net.Home[f.Dst] {
			return fmt.Errorf("routing: flow %v ends at switch %d, home is %d", f, last, t.Net.Home[f.Dst])
		}
		seen := make(map[topology.SwitchID]bool)
		for i, s := range r.Switches {
			if seen[s] {
				return fmt.Errorf("routing: flow %v revisits switch %d", f, s)
			}
			seen[s] = true
			if i == 0 {
				continue
			}
			pipe, ok := t.Net.PipeBetween(r.Switches[i-1], s)
			if !ok {
				return fmt.Errorf("routing: flow %v hop %d: no pipe between switches %d and %d", f, i-1, r.Switches[i-1], s)
			}
			if li := r.Links[i-1]; li != UnassignedLink && (li < 0 || li >= pipe.Width) {
				return fmt.Errorf("routing: flow %v hop %d: link %d out of pipe width %d", f, i-1, li, pipe.Width)
			}
		}
	}
	return nil
}

// ChannelKind distinguishes the three resource classes of a path.
type ChannelKind int

const (
	// Inject is the processor-to-switch port of the source.
	Inject ChannelKind = iota
	// Eject is the switch-to-processor port of the destination.
	Eject
	// Link is one direction of one physical link within a pipe.
	Link
)

// Channel identifies one directed, non-sharable network resource.
type Channel struct {
	Kind ChannelKind
	// For Link: From and To are switch IDs and Index selects the
	// physical link within the pipe. For Inject/Eject: From or To is the
	// processor and the other endpoint the switch; Index is unused.
	From, To int
	Index    int
}

// PathChannels expands a flow's route into the directed resources it
// occupies: injection port, one directed link per hop, ejection port.
// Unassigned link indices resolve to link 0.
func PathChannels(f model.Flow, r Route) []Channel {
	out := make([]Channel, 0, len(r.Links)+2)
	out = append(out, Channel{Kind: Inject, From: f.Src, To: int(r.Switches[0])})
	for i := 1; i < len(r.Switches); i++ {
		idx := r.Links[i-1]
		if idx == UnassignedLink {
			idx = 0
		}
		out = append(out, Channel{Kind: Link, From: int(r.Switches[i-1]), To: int(r.Switches[i]), Index: idx})
	}
	out = append(out, Channel{Kind: Eject, From: int(r.Switches[len(r.Switches)-1]), To: f.Dst})
	return out
}

// ConflictMatrix computes R (Definition 7) over the given flow index: every
// unordered pair of distinct flows whose paths share at least one directed
// resource. Flows absent from the index are ignored.
func (t *Table) ConflictMatrix(ix *model.FlowIndex) *model.ConflictMatrix {
	m := model.NewConflictMatrix(ix)
	users := make(map[Channel][]int)
	for f, r := range t.Routes {
		id, ok := ix.ID(f)
		if !ok {
			continue
		}
		for _, ch := range PathChannels(f, r) {
			users[ch] = append(users[ch], id)
		}
	}
	for _, ids := range users {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				m.Add(ids[i], ids[j])
			}
		}
	}
	return m
}

// SortedFlows returns the table's flows in deterministic order.
func (t *Table) SortedFlows() []model.Flow {
	flows := make([]model.Flow, 0, len(t.Routes))
	for f := range t.Routes {
		flows = append(flows, f)
	}
	slices.SortFunc(flows, func(a, b model.Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return flows
}

// singleSwitchRoute returns the trivial route when source and destination
// share a home switch.
func singleSwitchRoute(s topology.SwitchID) Route {
	return Route{Switches: []topology.SwitchID{s}}
}

// DORMesh builds dimension-order (X then Y) routes on a mesh for the given
// flows — the routing the paper assumes for the mesh baseline.
func DORMesh(net *topology.Network, g topology.Grid, flows []model.Flow) (*Table, error) {
	t := &Table{Net: net, Routes: make(map[model.Flow]Route, len(flows))}
	for _, f := range flows {
		if f.Src == f.Dst {
			continue
		}
		sw, dst := net.Home[f.Src], net.Home[f.Dst]
		r1, c1 := g.Coord(sw)
		r2, c2 := g.Coord(dst)
		hops := max(r2-r1, r1-r2) + max(c2-c1, c1-c2)
		route := Route{Switches: append(make([]topology.SwitchID, 0, hops+1), sw), Links: make([]int, hops)}
		for next, ok := DORNext(g, sw, dst); ok; next, ok = DORNext(g, sw, dst) {
			route.Switches = append(route.Switches, next)
			sw = next
		}
		t.Routes[f] = route
	}
	return t, t.Validate()
}

// DORNext is the X-then-Y dimension-order next hop from switch sw toward
// switch dst on grid g, never using wrap links; ok is false at dst. It is
// the mesh baseline's routing function and the torus router's escape path.
func DORNext(g topology.Grid, sw, dst topology.SwitchID) (next topology.SwitchID, ok bool) {
	r, c := g.Coord(sw)
	dr, dc := g.Coord(dst)
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

// ShortestPath builds BFS shortest-path routes over an arbitrary switch
// graph, breaking ties toward lower switch IDs for determinism. Link indices
// are left unassigned. This is the default for irregular networks before the
// synthesizer assigns flows to specific links.
func ShortestPath(net *topology.Network, flows []model.Flow) (*Table, error) {
	t := NewTable(net)
	// Precompute BFS parents from every switch that is some flow's source home.
	parents := make(map[topology.SwitchID][]topology.SwitchID)
	bfs := func(start topology.SwitchID) []topology.SwitchID {
		if p, ok := parents[start]; ok {
			return p
		}
		par := make([]topology.SwitchID, len(net.Switches))
		for i := range par {
			par[i] = -1
		}
		par[start] = start
		queue := []topology.SwitchID{start}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			for _, nb := range net.Neighbors(s) {
				if par[nb] == -1 {
					par[nb] = s
					queue = append(queue, nb)
				}
			}
		}
		parents[start] = par
		return par
	}
	for _, f := range flows {
		if f.Src == f.Dst {
			continue
		}
		src, dst := net.Home[f.Src], net.Home[f.Dst]
		if src == dst {
			t.Routes[f] = singleSwitchRoute(src)
			continue
		}
		par := bfs(src)
		if par[dst] == -1 {
			return nil, fmt.Errorf("routing: no path from switch %d to %d for flow %v", src, dst, f)
		}
		var rev []topology.SwitchID
		for s := dst; s != src; s = par[s] {
			rev = append(rev, s)
		}
		route := Route{Switches: []topology.SwitchID{src}}
		for i := len(rev) - 1; i >= 0; i-- {
			route.Switches = append(route.Switches, rev[i])
			route.Links = append(route.Links, UnassignedLink)
		}
		t.Routes[f] = route
	}
	return t, t.Validate()
}

// CrossbarTable routes all flows through the single megaswitch. Every
// route shares one read-only switch list.
func CrossbarTable(net *topology.Network, flows []model.Flow) (*Table, error) {
	if net.NumSwitches() != 1 {
		return nil, fmt.Errorf("routing: crossbar table needs a single switch, have %d", net.NumSwitches())
	}
	t := &Table{Net: net, Routes: make(map[model.Flow]Route, len(flows))}
	route := singleSwitchRoute(0)
	for _, f := range flows {
		if f.Src == f.Dst {
			continue
		}
		t.Routes[f] = route
	}
	return t, t.Validate()
}
