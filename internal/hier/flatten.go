package hier

import (
	"fmt"

	"repro/internal/flitsim"
	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Flat is a two-level design flattened into one system graph: chiplet
// switch blocks first (in cluster order), then the NoI block, with a
// gateway pipe joining every gateway's chiplet switch to its NoI switch.
// The routing table carries the composite hierarchical source routes —
// intra-route · gateway hop · NoI route · gateway hop · intra-route — for
// every flow of the original pattern, so flitsim replays the whole design
// in one run.
type Flat struct {
	Net   *topology.Network
	Table *routing.Table
	// ChipletOffset[c] is the first flat switch ID of chiplet c's block;
	// NoIOffset the first NoI switch (== switch count when there is no
	// NoI level). Every link with an endpoint at or past NoIOffset — NoI
	// internal links and gateway pipes — is an inter-chiplet link.
	ChipletOffset []topology.SwitchID
	NoIOffset     topology.SwitchID
	NoILinkDelay  int
}

// LinkDelay is the flattened design's per-link pipeline depth:
// intra-chiplet links cost 1 cycle, inter-chiplet links (NoI and gateway
// pipes) cost NoILinkDelay. It has the flitsim.Config.LinkDelay shape.
func (f *Flat) LinkDelay(a, b topology.SwitchID) int {
	if a >= f.NoIOffset || b >= f.NoIOffset {
		return f.NoILinkDelay
	}
	return 1
}

// Flatten composes the design's levels into a Flat for the given pattern.
// The pattern supplies the flow set: each flow's path across the levels is
// resolved from the design's assignment (pathFor, as SplitPattern resolves
// it), so a design loaded from disk (whose levels carry no patterns)
// flattens exactly like a freshly synthesized one. Flows that a level's
// table does not route are an error — the design was built for a different
// pattern.
func Flatten(d *Design, p *model.Pattern) (*Flat, error) {
	if d == nil || p == nil {
		return nil, fmt.Errorf("hier: Flatten needs a design and a pattern")
	}
	if p.Procs != d.Procs {
		return nil, fmt.Errorf("hier: pattern has %d procs, design %d", p.Procs, d.Procs)
	}
	if err := d.checkLevels(); err != nil {
		return nil, err
	}
	a := d.Assign
	flat := &Flat{NoILinkDelay: d.NoILinkDelay}
	net := topology.New("hier."+d.Name, d.Procs)
	for _, lv := range d.Chiplets {
		flat.ChipletOffset = append(flat.ChipletOffset, net.Graft(lv.Net))
	}
	flat.NoIOffset = topology.SwitchID(len(net.Switches))
	if d.NoI != nil {
		net.Graft(d.NoI.Net)
	}
	for q := 0; q < d.Procs; q++ {
		c := a.Of[q]
		net.AttachProc(q, flat.ChipletOffset[c]+d.Chiplets[c].Net.Home[a.Local[q]])
	}
	// Gateway pipes: one bundle of GatewayWidth links per gateway. When
	// several gateways share both a chiplet switch and an NoI switch their
	// bundles pool into one wider pipe; gwBase remembers where each
	// gateway's links start inside it.
	gwBase := make(map[int]int)
	gwPipe := make(map[int][2]topology.SwitchID)
	if d.NoI != nil {
		width := make(map[[2]topology.SwitchID]int)
		for c, gws := range a.Gateways {
			for _, g := range gws {
				ca := flat.ChipletOffset[c] + d.Chiplets[c].Net.Home[a.Local[g]]
				nb := flat.NoIOffset + d.NoI.Net.Home[a.NoIID[g]]
				key := [2]topology.SwitchID{ca, nb}
				gwBase[g] = width[key]
				gwPipe[g] = key
				width[key] += d.GatewayWidth
			}
		}
		for _, gws := range a.Gateways {
			for _, g := range gws {
				key := gwPipe[g]
				net.SetPipe(key[0], key[1], width[key])
			}
		}
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("hier: flattened network invalid: %v", err)
	}
	table := routing.NewTable(net)
	// Per-gateway, per-direction round-robin over the gateway's links, in
	// sorted flow order — deterministic, and with GatewayWidth > 1 it
	// spreads concurrent inter-cluster flows across the bundle.
	nextOut := make(map[int]int)
	nextIn := make(map[int]int)
	for _, f := range p.Flows() {
		fp := pathFor(a, f)
		if fp.Intra {
			lv := d.Chiplets[fp.Cluster]
			sub, ok := lv.Table.Routes[fp.Local]
			if !ok {
				return nil, fmt.Errorf("hier: chiplet %d has no route for local flow %v (flow %v)", fp.Cluster, fp.Local, f)
			}
			table.Routes[f] = shiftRoute(sub, flat.ChipletOffset[fp.Cluster])
			continue
		}
		route, err := composeInter(d, flat, f, fp, gwBase, nextOut, nextIn)
		if err != nil {
			return nil, err
		}
		table.Routes[f] = route
	}
	if err := table.Validate(); err != nil {
		return nil, fmt.Errorf("hier: composite routes invalid: %v", err)
	}
	flat.Net, flat.Table = net, table
	return flat, nil
}

// composeInter assembles one inter-cluster flow's composite route.
func composeInter(d *Design, flat *Flat, f model.Flow, fp FlowPath, gwBase, nextOut, nextIn map[int]int) (routing.Route, error) {
	a := d.Assign
	if d.NoI == nil {
		return routing.Route{}, fmt.Errorf("hier: inter-cluster flow %v but design has no NoI level", f)
	}
	noiRoute, ok := d.NoI.Table.Routes[fp.NoI]
	if !ok {
		return routing.Route{}, fmt.Errorf("hier: noi has no route for flow %v (flow %v)", fp.NoI, f)
	}
	segOut := gatewaySeg(d, flat, fp.SrcCluster, fp.LegOut, a.Local[fp.OutGW])
	segIn := gatewaySeg(d, flat, fp.DstCluster, fp.LegIn, a.Local[fp.InGW])
	if segOut.Switches == nil || segIn.Switches == nil {
		return routing.Route{}, fmt.Errorf("hier: chiplet route missing for forwarding leg of flow %v", f)
	}
	noiShifted := shiftRoute(noiRoute, flat.NoIOffset)

	outLink := gwBase[fp.OutGW] + nextOut[fp.OutGW]%d.GatewayWidth
	nextOut[fp.OutGW]++
	inLink := gwBase[fp.InGW] + nextIn[fp.InGW]%d.GatewayWidth
	nextIn[fp.InGW]++

	var r routing.Route
	r.Switches = append(r.Switches, segOut.Switches...)
	r.Links = append(r.Links, segOut.Links...)
	r.Switches = append(r.Switches, noiShifted.Switches...)
	r.Links = append(r.Links, outLink)
	r.Links = append(r.Links, noiShifted.Links...)
	r.Switches = append(r.Switches, segIn.Switches...)
	r.Links = append(r.Links, inLink)
	r.Links = append(r.Links, segIn.Links...)
	return r, nil
}

// gatewaySeg returns one side's flat-route segment: the chiplet table's
// route for the forwarding leg (shifted into the flat ID space), or just
// the gateway's home switch when the flow's endpoint is itself the gateway.
// A nil Switches result means the chiplet table lacks the leg's route.
func gatewaySeg(d *Design, flat *Flat, cluster int, leg *model.Flow, gwLocal int) routing.Route {
	off := flat.ChipletOffset[cluster]
	lv := d.Chiplets[cluster]
	if leg == nil {
		return routing.Route{Switches: []topology.SwitchID{off + lv.Net.Home[gwLocal]}}
	}
	sub, ok := lv.Table.Routes[*leg]
	if !ok {
		return routing.Route{}
	}
	return shiftRoute(sub, off)
}

func shiftRoute(r routing.Route, off topology.SwitchID) routing.Route {
	out := routing.Route{
		Switches: make([]topology.SwitchID, len(r.Switches)),
		Links:    append([]int(nil), r.Links...),
	}
	for i, s := range r.Switches {
		out.Switches[i] = s + off
	}
	return out
}

// Simulate flattens the design for the pattern and replays it in flitsim
// under the flattened design's two-class link delays (Flat.LinkDelay). A
// caller-supplied cfg.LinkDelay wins over the hierarchical default.
func Simulate(d *Design, p *model.Pattern, cfg flitsim.Config) (flitsim.Result, *Flat, error) {
	flat, err := Flatten(d, p)
	if err != nil {
		return flitsim.Result{}, nil, err
	}
	if cfg.LinkDelay == nil {
		cfg.LinkDelay = flat.LinkDelay
	}
	res, err := flitsim.RunGenerated(p, flat.Net, flat.Table, cfg)
	return res, flat, err
}
