package harness

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// collectiveConfig maps the harness knobs onto the collective generators:
// Iterations becomes the repeat count and ByteScale scales chunk sizes, so
// Quick() shrinks collective cells exactly as it shrinks NAS cells.
func (c Config) collectiveConfig() collective.Config {
	return collective.Config{Repeats: c.Iterations, ByteScale: c.ByteScale, Obs: c.Obs}
}

// BuildCollectiveDesign generates the named collective's pattern,
// synthesizes a network for it, and floorplans the result — the collective
// counterpart of BuildDesign.
func (c Config) BuildCollectiveDesign(name string, nodes int) (*Design, error) {
	pat, err := collective.Generate(name, nodes, c.collectiveConfig())
	if err != nil {
		return nil, err
	}
	return c.designFor(name, nodes, pat)
}

// CollectiveTopologies lists the comparison bars for the collective
// experiment: the crossbar (the normalization baseline, first), the ring
// and mesh collectives conventionally run on, and the generated network.
func CollectiveTopologies() []string { return []string{"crossbar", "ring", "mesh", "generated"} }

// Collectives runs the collective comparison grid at one node count: for
// every collective in the registry, synthesize a network and simulate the
// trace on each CollectiveTopologies entry. Cells fan out over the Workers
// pool like every other experiment; rows are deterministic for any worker
// count. Each result row is also emitted as a harness.collective_row event,
// so a RunReport collected over the run carries the comparison table.
func (c Config) Collectives(nodes int) ([]PerfRow, error) {
	names := collective.Names()
	cells, err := parallel.MapObserved(c.Obs, "harness.collectives", c.Workers, len(names), func(i int) ([]PerfRow, error) {
		return c.CollectiveFor(names[i], nodes)
	})
	if err != nil {
		return nil, err
	}
	var rows []PerfRow
	for _, cell := range cells {
		rows = append(rows, cell...)
	}
	for _, r := range rows {
		obs.Emit(c.Obs, "harness.collective_row",
			fmt.Sprintf("%s/%d %s exec=%d comm=%.0f lat=%.2f kills=%d",
				r.Benchmark, r.Procs, r.Topology, r.ExecCycles, r.CommCycles, r.MeanLatency, r.Kills))
	}
	return rows, nil
}

// CollectiveFor runs the topology comparison for a single collective.
func (c Config) CollectiveFor(name string, nodes int) ([]PerfRow, error) {
	pat, err := collective.Generate(name, nodes, c.collectiveConfig())
	if err != nil {
		return nil, fmt.Errorf("collectives %s/%d: %v", name, nodes, err)
	}
	return c.compareTopologies("collectives", name, nodes, pat, CollectiveTopologies())
}
