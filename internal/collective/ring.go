package collective

import (
	"strconv"

	"repro/internal/model"
	"repro/internal/trace"
)

// ringFlows returns the flows of one neighbor-shift step of a ring pass:
// every node i sends one chunk to its successor (i+1) mod N, all transfers
// synchronized. Each step is a permutation — exactly one send and one
// receive per node — which is what makes ring collectives maximally
// well-behaved: the step's flows form a single contention period whose
// maximum clique is the whole ring.
func ringFlows(nodes int) []model.Flow {
	fs := make([]model.Flow, nodes)
	for i := range fs {
		fs[i] = model.F(i, (i+1)%nodes)
	}
	return fs
}

// ringPass appends the N−1 steps of one ring pass (a reduce-scatter or an
// all-gather) over the step flows, labelled prefix.s0 … prefix.s{N−2}. In
// step s node i moves chunk (i−s) mod N for a reduce-scatter and chunk
// (i+1−s) mod N for an all-gather; the chunk index does not change the flow
// structure, so the schedule records only the step, and every step shares
// the one flow slice (trace.BuildPhased only reads it).
func ringPass(phases []trace.PhaseSpec, prefix string, flows []model.Flow, chunkBytes int) []trace.PhaseSpec {
	label := append([]byte(prefix), ".s"...)
	for s := 0; s < len(flows)-1; s++ {
		phases = append(phases, trace.PhaseSpec{
			Label: string(strconv.AppendInt(label, int64(s), 10)),
			Flows: flows,
			Bytes: chunkBytes,
		})
	}
	return phases
}

// ReduceScatter generates the ring reduce-scatter: Repeats executions of
// N−1 neighbor-shift steps moving B/N-byte chunks. After one execution
// every node has sent and received exactly (N−1)/N of the buffer.
func ReduceScatter(nodes int, cfg Config) (*model.Pattern, error) {
	return ringCollective("reduce-scatter", []string{"reduce_scatter"}, nodes, cfg)
}

// AllGather generates the ring all-gather: the same N−1 neighbor-shift
// steps, each forwarding the newest B/N chunk until every node holds all N.
func AllGather(nodes int, cfg Config) (*model.Pattern, error) {
	return ringCollective("all-gather", []string{"all_gather"}, nodes, cfg)
}

// RingAllReduce generates the bandwidth-optimal ring allreduce: a
// reduce-scatter pass followed by an all-gather pass, 2(N−1) steps of
// B/N-byte chunks per execution.
func RingAllReduce(nodes int, cfg Config) (*model.Pattern, error) {
	return ringCollective("ring-allreduce", []string{"reduce_scatter", "all_gather"}, nodes, cfg)
}

// ringCollective lays out Repeats executions of the given ring passes, with
// a compute gap after each execution standing in for the compute phase
// between collectives.
func ringCollective(name string, passes []string, nodes int, cfg Config) (*model.Pattern, error) {
	cfg = cfg.Normalized()
	if err := checkNodes(name, nodes, false); err != nil {
		return nil, err
	}
	chunk := cfg.chunk(nodes)
	flows := ringFlows(nodes)
	phases := make([]trace.PhaseSpec, 0, cfg.Repeats*len(passes)*(nodes-1))
	for _, prefix := range passes {
		phases = ringPass(phases, prefix, flows, chunk)
	}
	phases[len(phases)-1].ComputeAfter = computeGap(nodes)
	// Every further execution repeats the first's steps, labels included.
	for rep := 1; rep < cfg.Repeats; rep++ {
		phases = append(phases, phases[:len(passes)*(nodes-1)]...)
	}
	return build(name, nodes, phases), nil
}
