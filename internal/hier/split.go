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
// One walk over the messages and one over the phases serve every level: each
// flow's path is resolved once, into a slice by flow ID, and a message is
// appended to the (at most three) levels that own a piece of it.
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
	// at[i] lists where message i lands: 1 + the level, its ID there (the
	// level's running count) and its endpoints in the level's processor IDs.
	type landing struct{ level, id, src, dst int32 }
	at := make([][3]landing, len(p.Messages))
	count := make([]int32, len(levels))
	put := func(i, level int, f model.Flow) {
		k := 0
		for at[i][k].level != 0 {
			k++
		}
		at[i][k] = landing{int32(level + 1), count[level], int32(f.Src), int32(f.Dst)}
		count[level]++
	}
	// paths[id] is the path of the flow with that ID; a self-flow has no ID,
	// and its path, within one chiplet, is resolved in place.
	ix := model.NewFlowIndex(p.Flows())
	paths := make([]FlowPath, ix.Len())
	for id, f := range ix.Flows() {
		paths[id] = pathFor(a, f)
	}
	var self FlowPath
	for i, m := range p.Messages {
		fp := &self
		if id, ok := ix.ID(m.Flow()); ok {
			fp = &paths[id]
		} else {
			self = pathFor(a, m.Flow())
		}
		if fp.Intra {
			put(i, fp.Cluster, fp.Local)
			continue
		}
		s.InterMessages++
		if fp.LegOut != nil {
			put(i, fp.SrcCluster, *fp.LegOut)
		}
		if fp.LegIn != nil {
			put(i, fp.DstCluster, *fp.LegIn)
		}
		put(i, noi, fp.NoI)
	}
	for l, lv := range levels {
		if count[l] > 0 { // a level nothing lands on keeps a nil list
			lv.Messages = make([]model.Message, count[l])
		}
	}
	for i, m := range p.Messages {
		for _, l := range at[i] {
			if l.level == 0 {
				break
			}
			m.ID, m.Src, m.Dst = int(l.id), int(l.src), int(l.dst)
			levels[l.level-1].Messages[l.id] = m
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
			for _, l := range at[mi] {
				if l.level == 0 {
					break
				}
				lists[l.level-1] = append(lists[l.level-1], int(l.id))
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
