package hier

import (
	"fmt"

	"repro/internal/model"
)

// FlowPath describes how one original flow decomposes across the two levels.
// Intra flows live entirely inside one chiplet. Inter flows ride the NoI
// between gateway endpoints, with an optional forwarding leg on each side
// when the flow's own endpoint is not a gateway. With the default boundary
// gateways both legs vanish: the source itself injects into the NoI and the
// destination ejects from it.
type FlowPath struct {
	Intra   bool
	Cluster int        // intra: the owning chiplet
	Local   model.Flow // intra: the flow in chiplet-local processor IDs

	SrcCluster, DstCluster int
	OutGW, InGW            int         // inter: gateway processors (global IDs)
	LegOut                 *model.Flow // inter: src→gateway in SrcCluster's local IDs, nil when src is the gateway
	NoI                    model.Flow  // inter: the flow in NoI endpoint IDs
	LegIn                  *model.Flow // inter: gateway→dst in DstCluster's local IDs, nil when dst is the gateway
}

// Split is the per-level decomposition of one pattern under an Assignment.
type Split struct {
	Assign *Assignment
	// Chiplets[c] is cluster c's sub-pattern in local processor IDs,
	// holding its intra-cluster messages plus any forwarding legs.
	Chiplets []*model.Pattern
	// NoI is the inter-chiplet sub-pattern over gateway endpoints; nil
	// when the assignment has a single cluster (no NoI level).
	NoI *model.Pattern
	// InterMessages counts original messages that cross clusters.
	InterMessages int
}

// Levels returns the sub-patterns in Design.Levels order: chiplet 0 … k−1,
// then the NoI when there is more than one cluster. No entry is nil.
func (s *Split) Levels() []*model.Pattern { return levels(s.Chiplets, s.NoI) }

// pathFor decomposes one flow. Gateway choice is per-flow deterministic: a
// non-gateway endpoint forwards through its cluster's gateway selected by
// the peer cluster's index, spreading concurrent inter-cluster flows across
// the gateway set.
func pathFor(a *Assignment, f model.Flow) FlowPath {
	ca, cb := a.Of[f.Src], a.Of[f.Dst]
	if ca == cb {
		return FlowPath{
			Intra:   true,
			Cluster: ca,
			Local:   model.F(a.Local[f.Src], a.Local[f.Dst]),
		}
	}
	fp := FlowPath{SrcCluster: ca, DstCluster: cb}
	fp.OutGW = f.Src
	if a.NoIID[f.Src] < 0 {
		gws := a.Gateways[ca]
		fp.OutGW = gws[cb%len(gws)]
		leg := model.F(a.Local[f.Src], a.Local[fp.OutGW])
		fp.LegOut = &leg
	}
	fp.InGW = f.Dst
	if a.NoIID[f.Dst] < 0 {
		gws := a.Gateways[cb]
		fp.InGW = gws[ca%len(gws)]
		leg := model.F(a.Local[fp.InGW], a.Local[f.Dst])
		fp.LegIn = &leg
	}
	fp.NoI = model.F(a.NoIID[fp.OutGW], a.NoIID[fp.InGW])
	return fp
}

// landing is one level's piece of a message: the level and the flow in its
// processor IDs.
type landing struct {
	level int
	flow  model.Flow
}

// landings are the pieces of every message on one flow, in the order a
// message's pieces are numbered: an intra flow's one in its chiplet; an
// inter flow's outbound leg, its inbound leg, then the NoI's.
type landings struct {
	n  int
	at [3]landing
}

// landingsOf lists the pieces of a message on a flow with path fp; noi is
// the NoI's level.
func landingsOf(fp FlowPath, noi int) (ls landings) {
	add := func(level int, f model.Flow) {
		ls.at[ls.n] = landing{level, f}
		ls.n++
	}
	if fp.Intra {
		add(fp.Cluster, fp.Local)
		return ls
	}
	if fp.LegOut != nil {
		add(fp.SrcCluster, *fp.LegOut)
	}
	if fp.LegIn != nil {
		add(fp.DstCluster, *fp.LegIn)
	}
	add(noi, fp.NoI)
	return ls
}

// SplitPattern decomposes a pattern under an assignment: each chiplet keeps
// its intra-cluster messages (in local processor IDs) plus forwarding legs
// of inter-cluster messages whose local endpoint is not a gateway, and the
// NoI carries every inter-cluster message remapped onto gateway endpoints.
// Each level message copies its original's timing and payload, so an
// inter-cluster message's bytes cross the NoI exactly once. Within a level
// messages keep their original order and are renumbered sequentially, and
// every original phase is mirrored — label, bounds, compute gap, and the
// level's share of its messages. Empty mirrored phases are kept on purpose: a
// phase's compute gap shapes timing even for processors that sit out its
// communication.
//
// Each flow's pieces are resolved once, into a slice by flow ID. A first
// walk over the messages numbers each message's pieces in their levels,
// which counts each level's messages; a second walk, re-reading each
// message's pieces by its flow, places them in lists of those sizes; and
// one walk over the phases mirrors them for every level.
func SplitPattern(p *model.Pattern, a *Assignment) (*Split, error) {
	if p.Procs != a.Procs {
		return nil, fmt.Errorf("hier: pattern has %d procs, assignment %d", p.Procs, a.Procs)
	}
	s := &Split{Assign: a}
	// levels[c] is chiplet c's sub-pattern; the NoI's, when there is one,
	// comes last.
	noi := len(a.Clusters)
	levels := make([]*model.Pattern, noi, noi+1)
	for c, members := range a.Clusters {
		levels[c] = &model.Pattern{Name: fmt.Sprintf("%s.c%d", p.Name, c), Procs: len(members)}
	}
	if noi > 1 {
		levels = append(levels, &model.Pattern{Name: p.Name + ".noi", Procs: a.NoIProcs})
	}
	// pieces[id] are the pieces of the flow with that ID; a self-flow has no
	// ID, and its pieces, within one chiplet, are resolved in place.
	ix := model.NewFlowIndex(p.Flows())
	pieces := make([]landings, ix.Len())
	for id, f := range ix.Flows() {
		pieces[id] = landingsOf(pathFor(a, f), noi)
	}
	// msgs[i] is message i's flow ID (-1 for a self-flow) and the ID of each
	// of its pieces in its level: the level's running count.
	type numbered struct {
		flow int32
		ids  [3]int32
	}
	msgs := make([]numbered, len(p.Messages))
	var self landings
	piecesOf := func(i int) *landings {
		if id := msgs[i].flow; id >= 0 {
			return &pieces[id]
		}
		self = landingsOf(pathFor(a, p.Messages[i].Flow()), noi)
		return &self
	}
	count := make([]int32, len(levels))
	for i, m := range p.Messages {
		msgs[i].flow = -1
		if id, ok := ix.ID(m.Flow()); ok {
			msgs[i].flow = int32(id)
		}
		ls := piecesOf(i)
		if ls.at[ls.n-1].level == noi { // an intra flow's one piece is its chiplet's
			s.InterMessages++
		}
		for k, l := range ls.at[:ls.n] {
			msgs[i].ids[k] = count[l.level]
			count[l.level]++
		}
	}
	for l, lv := range levels {
		if count[l] > 0 { // a level nothing lands on keeps a nil list
			lv.Messages = make([]model.Message, count[l])
		}
	}
	for i, m := range p.Messages {
		ls := piecesOf(i)
		for k, l := range ls.at[:ls.n] {
			m.ID, m.Src, m.Dst = int(msgs[i].ids[k]), l.flow.Src, l.flow.Dst
			levels[l.level].Messages[m.ID] = m
		}
	}
	// Each level's mirrored phase lists are cut from one array sized by its
	// message count: a phase keeps the tail it appended, nil if it added none.
	lists := make([][]int, len(levels))
	start := make([]int, len(levels))
	for l, lv := range levels {
		lists[l] = make([]int, 0, len(lv.Messages))
		if len(p.Phases) > 0 {
			lv.Phases = make([]model.Phase, 0, len(p.Phases))
		}
	}
	for _, ph := range p.Phases {
		for l := range levels {
			start[l] = len(lists[l])
		}
		for _, mi := range ph.Messages {
			ls := piecesOf(mi)
			for k, l := range ls.at[:ls.n] {
				lists[l.level] = append(lists[l.level], int(msgs[mi].ids[k]))
			}
		}
		for l, lv := range levels {
			mirrored := model.Phase{Label: ph.Label, Start: ph.Start, Finish: ph.Finish, ComputeAfter: ph.ComputeAfter}
			if n := len(lists[l]); n > start[l] {
				mirrored.Messages = lists[l][start[l]:n:n]
			}
			lv.Phases = append(lv.Phases, mirrored)
		}
	}
	s.Chiplets = levels[:noi:noi]
	if noi > 1 {
		s.NoI = levels[noi]
	}
	return s, nil
}
