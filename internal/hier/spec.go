// Package hier synthesizes two-level chiplet interconnects: a trace's
// processors are partitioned into clusters, every flow is split into
// intra-cluster traffic and inter-cluster traffic remapped onto per-cluster
// gateway endpoints, and the existing single-level synthesizer runs once per
// chiplet (the NoC level) and once for the inter-chiplet network (the NoI
// level) under independent budgets. The composite design carries
// hierarchical source routes — intra-route · gateway hop · NoI route ·
// gateway hop · intra-route — and flattens into one network so flitsim
// replays a two-level design in a single run.
//
// The decomposition follows Ogras & Marculescu's strategy of splitting one
// synthesis problem into independently solved subnetworks; the distinct
// per-level width/degree budgets mirror the NOC_BUS_WIDTH / NOI_BUS_WIDTH
// split of hierarchical chiplet models.
package hier

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// SpecError is the typed rejection for malformed or inconsistent cluster
// specs: the parser and the partitioner report bad input only through this
// type, so callers (and the fuzzer) can distinguish user error from bugs.
type SpecError struct {
	Spec   string // the offending spec text
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("hier: bad cluster spec %q: %s", e.Spec, e.Reason)
}

func specErrf(spec, format string, args ...any) *SpecError {
	return &SpecError{Spec: spec, Reason: fmt.Sprintf(format, args...)}
}

// PartitionMode selects how processors are grouped into clusters.
type PartitionMode int

const (
	// ModeFlow partitions the flow graph: a deterministic greedy
	// agglomeration that merges the heaviest-communicating groups first,
	// holding clusters to ceil(N/K) processors while any merge under the
	// cap exists (the balance fallback may exceed it).
	ModeFlow PartitionMode = iota
	// ModeBlocks cuts the processor range into K contiguous blocks —
	// the natural clustering for row-major grids and ring schedules.
	ModeBlocks
	// ModeExplicit uses the member lists written in the spec.
	ModeExplicit
)

func (m PartitionMode) String() string {
	switch m {
	case ModeFlow:
		return "flow"
	case ModeBlocks:
		return "blocks"
	case ModeExplicit:
		return "explicit"
	}
	return fmt.Sprintf("PartitionMode(%d)", int(m))
}

// Spec is a parsed cluster specification. The textual grammar is:
//
//	"4"            — 4 clusters, flow-graph partition (ModeFlow)
//	"flow:4"       — the same, spelled out
//	"blocks:4"     — 4 contiguous blocks of the processor range
//	"0-3;4-7@4,7"  — explicit member groups separated by ';', each a
//	                 comma-separated list of processor IDs and a-b ranges,
//	                 with an optional "@g1,g2" gateway suffix naming
//	                 gateway processors (which must be group members)
type Spec struct {
	Mode PartitionMode
	// K is the cluster count for ModeFlow and ModeBlocks.
	K int
	// Groups and GroupGateways hold the explicit member and gateway
	// lists for ModeExplicit (GroupGateways[i] nil = pick automatically).
	// ParseSpec leaves them canonical: every list ascending without
	// repeats, and the groups ordered by smallest member.
	Groups        [][]int
	GroupGateways [][]int
}

// ParseSpec parses the cluster-spec grammar. All rejections are *SpecError.
func ParseSpec(s string) (*Spec, error) {
	text := strings.TrimSpace(s)
	if text == "" {
		return nil, specErrf(s, "empty spec")
	}
	if mode, rest, ok := strings.Cut(text, ":"); ok && (mode == "flow" || mode == "blocks") {
		k, err := parseCount(s, rest)
		if err != nil {
			return nil, err
		}
		m := ModeFlow
		if mode == "blocks" {
			m = ModeBlocks
		}
		return &Spec{Mode: m, K: k}, nil
	}
	if !strings.ContainsAny(text, ";@,-") {
		k, err := parseCount(s, text)
		if err != nil {
			return nil, err
		}
		return &Spec{Mode: ModeFlow, K: k}, nil
	}
	// Validate in spelled order, so errors name the groups as written; one
	// seen map holds every member's group, which also checks gateways, and
	// one budget bounds every list the spec expands.
	type group struct{ members, gateways []int }
	var groups []group
	seen := make(map[int]int)
	budget := maxSpecProcs
	for gi, groupText := range strings.Split(text, ";") {
		memberText, gwText, hasGW := strings.Cut(groupText, "@")
		members, err := parseProcList(s, memberText, &budget)
		if err != nil {
			return nil, err
		}
		if len(members) == 0 {
			return nil, specErrf(s, "group %d is empty", gi)
		}
		for _, m := range members {
			if prev, dup := seen[m]; dup {
				return nil, specErrf(s, "processor %d in groups %d and %d", m, prev, gi)
			}
			seen[m] = gi
		}
		var gws []int
		if hasGW {
			if gws, err = parseProcList(s, gwText, &budget); err != nil {
				return nil, err
			}
			if len(gws) == 0 {
				return nil, specErrf(s, "group %d has an empty gateway list", gi)
			}
			for _, g := range gws {
				if in, ok := seen[g]; !ok || in != gi {
					return nil, specErrf(s, "gateway %d is not a member of group %d", g, gi)
				}
			}
		}
		groups = append(groups, group{members, gws})
	}
	// Groups are disjoint, so ordering them by smallest member is total.
	slices.SortFunc(groups, func(a, b group) int { return cmp.Compare(a.members[0], b.members[0]) })
	spec := &Spec{Mode: ModeExplicit}
	for _, g := range groups {
		spec.Groups = append(spec.Groups, g.members)
		spec.GroupGateways = append(spec.GroupGateways, g.gateways)
	}
	// A lone one-processor group with no gateway suffix would canonicalize
	// to a bare integer — the cluster-count spelling. Reject the ambiguity;
	// a one-processor pattern is "flow:1".
	if len(spec.Groups) == 1 && len(spec.Groups[0]) == 1 && len(spec.GroupGateways[0]) == 0 {
		return nil, specErrf(s, "a single one-processor group is ambiguous with a cluster count; use flow:1")
	}
	return spec, nil
}

// Canonical renders the spec in a normal form, so that differently spelled
// but equivalent specs (range vs. list, reordered members or groups) share
// cache keys. The lists are already canonical; it only collapses runs.
func (s *Spec) Canonical() string {
	switch s.Mode {
	case ModeFlow:
		return fmt.Sprintf("flow:%d", s.K)
	case ModeBlocks:
		return fmt.Sprintf("blocks:%d", s.K)
	}
	var b strings.Builder
	for gi, members := range s.Groups {
		if gi > 0 {
			b.WriteByte(';')
		}
		writeProcList(&b, members)
		if gws := s.GroupGateways[gi]; len(gws) > 0 {
			b.WriteByte('@')
			writeProcList(&b, gws)
		}
	}
	return b.String()
}

func writeProcList(b *strings.Builder, sorted []int) {
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[j]+1 {
			j++
		}
		if i > 0 {
			b.WriteByte(',')
		}
		if j > i+1 {
			fmt.Fprintf(b, "%d-%d", sorted[i], sorted[j])
		} else {
			fmt.Fprintf(b, "%d", sorted[i])
			if j == i+1 {
				fmt.Fprintf(b, ",%d", sorted[j])
			}
		}
		i = j + 1
	}
}

func parseCount(spec, text string) (int, error) {
	k, err := strconv.Atoi(strings.TrimSpace(text))
	if err != nil {
		return 0, specErrf(spec, "cluster count %q is not an integer", text)
	}
	if k < 1 {
		return 0, specErrf(spec, "cluster count %d must be at least 1", k)
	}
	return k, nil
}

// parseProcList parses "0,3,5-8" into sorted deduplicated processor IDs.
// Every item is charged against *budget, the entries the whole spec may
// still expand, before it expands.
func parseProcList(spec, text string, budget *int) ([]int, error) {
	var out []int
	for _, item := range strings.Split(text, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, specErrf(spec, "empty list item in %q", text)
		}
		loText, hiText, isRange := strings.Cut(item, "-")
		lo, err := strconv.Atoi(strings.TrimSpace(loText))
		if err != nil || lo < 0 {
			return nil, specErrf(spec, "bad processor %q", item)
		}
		hi := lo
		if isRange {
			hi, err = strconv.Atoi(strings.TrimSpace(hiText))
			if err != nil || hi < lo {
				return nil, specErrf(spec, "bad range %q", item)
			}
		}
		if hi-lo >= *budget { // not hi-lo+1 > *budget: 0-MaxInt would wrap
			return nil, specErrf(spec, "spec lists more than %d processors and gateways", maxSpecProcs)
		}
		*budget -= hi - lo + 1
		for p := lo; ; p++ { // not p <= hi: a range ending at MaxInt would wrap
			out = append(out, p)
			if p == hi {
				break
			}
		}
	}
	return dedupSorted(out), nil
}

// maxSpecProcs bounds the entries an explicit spec's lists expand to, members
// and gateways together, so a hostile spec ("0-999999999", or many large
// groups) cannot balloon allocation before the pattern's processor count is
// known.
const maxSpecProcs = 1 << 16

func dedupSorted(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
