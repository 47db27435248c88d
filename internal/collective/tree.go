package collective

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/trace"
)

// TreeBroadcast generates the binomial-tree broadcast from node 0: log₂N
// rounds in which every node p < 2^r that already holds the buffer forwards
// the full B bytes to node p + 2^r. Round r doubles the informed set, so
// after log₂N rounds every node holds the buffer; each round is a partial
// permutation (senders and receivers disjoint), keeping the pattern
// well-behaved. Requires a power-of-two node count.
func TreeBroadcast(nodes int, cfg Config) (*model.Pattern, error) {
	const name = "tree-broadcast"
	cfg = cfg.Normalized()
	if err := checkNodes(name, nodes, true); err != nil {
		return nil, err
	}
	rounds := log2(nodes)
	payload := cfg.bytes(cfg.BufferBytes)
	var phases []trace.PhaseSpec
	for rep := 0; rep < cfg.Repeats; rep++ {
		for r := 0; r < rounds; r++ {
			fs := make([]model.Flow, 0, 1<<r)
			for p := 0; p < 1<<r; p++ {
				fs = append(fs, model.F(p, p+1<<r))
			}
			phases = append(phases, trace.PhaseSpec{
				Label: fmt.Sprintf("bcast.r%d", r),
				Flows: fs,
				Bytes: payload,
			})
		}
		phases[len(phases)-1].ComputeAfter = computeGap(nodes)
	}
	return build(name, nodes, phases), nil
}
