// Package collective generates deterministic communication traces for
// ML-style collective operations: ring allreduce, ring reduce-scatter, ring
// all-gather, and binomial-tree broadcast. The paper's methodology targets
// "well-behaved" patterns — repetitive, phase-regular traffic known before
// run time — and collectives are the purest instance of that class in
// modern workloads: their schedules are closed-form functions of the node
// count, every ring step is a permutation (one send and one receive per
// node), and consecutive steps never overlap in time.
//
// Each generator emits the textbook step/chunk schedule as synchronized
// (src, dst, start, finish, size) phases through the trace package, so the
// patterns flow through exactly the same synthesize → floorplan → flitsim
// pipeline as the NAS benchmarks of internal/nas (whose registry shape —
// Generators map, Names, typed errors — this package mirrors):
//
//   - reduce-scatter: N−1 ring steps; in step s every node i sends one
//     size/N chunk to node (i+1) mod N. After the last step node i holds
//     the full reduction of chunk (i+1) mod N.
//   - all-gather: the same N−1 neighbor-shift steps, each forwarding the
//     newest size/N chunk, after which every node holds all N chunks.
//   - ring allreduce: reduce-scatter followed by all-gather, 2(N−1) steps
//     of size/N chunks in total (the bandwidth-optimal ring algorithm).
//   - tree broadcast: log₂N binomial rounds; in round r every node p < 2^r
//     forwards the full buffer to node p + 2^r.
//
// Because the schedules are analytically known, the package doubles as an
// executable specification: golden schedule files, per-node byte
// conservation, step-count formulas, and the Theorem 1 well-behavedness
// condition (C ∩ R = ∅) are all pinned by tests.
package collective

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// MinNodes and MaxNodes bound the accepted node counts. The lower bound is
// the smallest ring (the schedules degenerate below it); the upper bound
// keeps generated traces simulation-sized (the 256-node ring allreduce is
// already 510 phases of 256 messages per repeat).
const (
	MinNodes = 2
	MaxNodes = 256
)

// Config tunes a generator. The zero value selects the documented defaults.
type Config struct {
	// BufferBytes is the total collective buffer B per node: ring steps
	// move B/N-byte chunks, broadcast rounds move the full B. Default
	// 16384, chosen so the 256-node chunk is still a whole flit multiple.
	BufferBytes int
	// Repeats is the number of back-to-back executions of the collective
	// (training steps). Default 2, so phase regularity across repeats is
	// visible to the contention model.
	Repeats int
	// ByteScale multiplies all message sizes. Zero means 1.0.
	ByteScale float64
	// Obs receives telemetry: the collective.* counters describing each
	// generated pattern. Nil disables telemetry at zero cost.
	Obs obs.Observer
}

// Normalized returns the configuration with every zero field replaced by
// its documented default.
func (c Config) Normalized() Config {
	if c.BufferBytes <= 0 {
		c.BufferBytes = 16384
	}
	if c.Repeats <= 0 {
		c.Repeats = 2
	}
	if c.ByteScale == 0 {
		c.ByteScale = 1
	}
	return c
}

// bytes applies ByteScale to a payload size, clamping at one byte. Callers
// normalize the config first.
func (c Config) bytes(n int) int {
	b := int(float64(n) * c.ByteScale)
	if b < 1 {
		b = 1
	}
	return b
}

// chunk returns the scaled size of one B/N ring chunk.
func (c Config) chunk(nodes int) int {
	ch := c.BufferBytes / nodes
	if ch < 1 {
		ch = 1
	}
	return c.bytes(ch)
}

// computeGap returns the compute gap following one full execution of the
// collective (the stand-in for the compute phase between collectives), in
// trace time units. As in internal/nas, per-node compute scales with 1/N.
func computeGap(nodes int) float64 {
	return 256.0 / float64(nodes) * 16
}

// UnknownCollectiveError reports a request for a collective outside the
// registry — the same contract as nas.UnknownBenchmarkError.
type UnknownCollectiveError struct {
	Name string
}

func (e *UnknownCollectiveError) Error() string {
	return fmt.Sprintf("collective: unknown collective %q (have %v)", e.Name, Names())
}

// NodeCountError reports a node count the collective's schedule cannot be
// generated for: all collectives require MinNodes ≤ N ≤ MaxNodes, and the
// binomial broadcast tree additionally requires a power of two.
type NodeCountError struct {
	Collective string
	Nodes      int
	// Want describes the accepted shape.
	Want string
}

func (e *NodeCountError) Error() string {
	return fmt.Sprintf("collective: %s requires a node count %s, got %d", e.Collective, e.Want, e.Nodes)
}

// checkNodes validates a node count, optionally requiring a power of two.
func checkNodes(name string, nodes int, needPow2 bool) error {
	if nodes < MinNodes || nodes > MaxNodes {
		return &NodeCountError{Collective: name, Nodes: nodes,
			Want: fmt.Sprintf("between %d and %d", MinNodes, MaxNodes)}
	}
	if needPow2 && nodes&(nodes-1) != 0 {
		return &NodeCountError{Collective: name, Nodes: nodes,
			Want: fmt.Sprintf("that is a power of two between %d and %d", MinNodes, MaxNodes)}
	}
	return nil
}

// Generator builds a pattern for a node count.
type Generator func(nodes int, cfg Config) (*model.Pattern, error)

// Generators maps collective names to their generators.
var Generators = map[string]Generator{
	"ring-allreduce": RingAllReduce,
	"reduce-scatter": ReduceScatter,
	"all-gather":     AllGather,
	"tree-broadcast": TreeBroadcast,
}

// Names lists the collectives in their canonical presentation order.
func Names() []string {
	return []string{"ring-allreduce", "reduce-scatter", "all-gather", "tree-broadcast"}
}

// PaperNodes returns the node counts the harness grid runs a collective at,
// mirroring nas.PaperProcs: 8 for the small configuration, 16 for the
// large one. Every collective accepts both.
func PaperNodes(string) (small, large int) { return 8, 16 }

// Steps returns the number of phases one execution of the named collective
// emits at the given node count — the closed-form step counts the property
// tests pin: N−1 for a ring pass, 2(N−1) for ring allreduce, log₂N for the
// broadcast tree. The second result is false for an unknown name.
func Steps(name string, nodes int) (int, bool) {
	switch name {
	case "reduce-scatter", "all-gather":
		return nodes - 1, true
	case "ring-allreduce":
		return 2 * (nodes - 1), true
	case "tree-broadcast":
		return log2(nodes), true
	}
	return 0, false
}

// Messages returns the number of messages Generate(name, nodes, cfg) emits,
// in closed form: nothing is built, so a caller can bound a request before
// generating it. A ring step sends N messages; broadcast round r sends 2^r.
// The second result is false for an unknown name.
func Messages(name string, nodes int, cfg Config) (int, bool) {
	steps, ok := Steps(name, nodes)
	if !ok {
		return 0, false
	}
	per := steps * nodes
	if name == "tree-broadcast" {
		per = 1<<steps - 1
	}
	return cfg.Normalized().Repeats * per, true
}

// Generate builds the named collective's pattern, validating it before
// return.
func Generate(name string, nodes int, cfg Config) (*model.Pattern, error) {
	cfg = cfg.Normalized()
	sp := obs.Span(cfg.Obs, "collective.generate")
	defer sp.End()
	gen, ok := Generators[name]
	if !ok {
		return nil, &UnknownCollectiveError{Name: name}
	}
	p, err := gen(nodes, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("collective: %s generator produced invalid pattern: %v", name, err)
	}
	obs.Count(cfg.Obs, "collective.patterns", 1)
	obs.Count(cfg.Obs, "collective.messages", int64(len(p.Messages)))
	obs.Count(cfg.Obs, "collective.phases", int64(len(p.Phases)))
	return p, nil
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// build stamps the pattern name and lays the phases on the timeline.
func build(name string, nodes int, phases []trace.PhaseSpec) *model.Pattern {
	return trace.BuildPhased(fmt.Sprintf("%s.%d", name, nodes), nodes, phases)
}
