package flitsim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topology"
)

// run is the simulator's single entry point: every Run* function comes
// through it. It checks the pattern, the network and the configuration, and
// only then builds the router with route, so route may trust the pattern.
func run(pat *model.Pattern, net *topology.Network, cfg Config, route func() (router, error)) (Result, error) {
	if err := pat.Validate(); err != nil {
		return Result{}, fmt.Errorf("flitsim: %v", err)
	}
	if err := net.Validate(); err != nil {
		return Result{}, fmt.Errorf("flitsim: %v", err)
	}
	if pat.Procs != net.Procs {
		return Result{}, fmt.Errorf("flitsim: pattern has %d procs, network %d", pat.Procs, net.Procs)
	}
	cfg = cfg.Normalized()
	if cfg.VCs < 0 || cfg.BufFlits < 0 {
		return Result{}, fmt.Errorf("flitsim: %d virtual channels of %d flits each; both must be positive", cfg.VCs, cfg.BufFlits)
	}
	rt, err := route()
	if err != nil {
		return Result{}, fmt.Errorf("flitsim: %v", err)
	}
	sp := obs.Span(cfg.Obs, "flitsim.run")
	defer sp.End()
	return simulate(pat, rt, net, cfg)
}

// replay builds the table router: it replays the table build makes over the
// pattern's flows.
func replay(pat *model.Pattern, build func(flows []model.Flow) (*routing.Table, error)) func() (router, error) {
	return func() (router, error) {
		table, err := build(pat.Flows())
		if err != nil {
			return nil, err
		}
		return sourceRouted{table}, nil
	}
}

// adaptive builds the TFAR router on grid.
func adaptive(grid topology.Grid) func() (router, error) {
	return func() (router, error) { return tfar{grid}, nil }
}

// RunBaseline simulates the pattern on the regular baseline named topo:
// "crossbar", "mesh", "ring", or "torus". The torus is the paper's folded
// on-chip torus: every link spans two tiles, so a LinkDelay of 2 replaces
// cfg's (Section 4.2 penalizes the torus's doubled wiring).
func RunBaseline(pat *model.Pattern, topo string, cfg Config) (Result, error) {
	switch topo {
	case "crossbar":
		return RunCrossbar(pat, cfg)
	case "mesh":
		return RunMesh(pat, cfg)
	case "ring":
		return RunRing(pat, cfg)
	case "torus":
		cfg.LinkDelay = func(a, b topology.SwitchID) int { return 2 }
		return RunTorus(pat, cfg)
	default:
		return Result{}, fmt.Errorf("flitsim: unknown baseline %q", topo)
	}
}

// RunMesh simulates the pattern on a mesh, replaying its dimension-order
// routes (routing.DORMesh).
func RunMesh(pat *model.Pattern, cfg Config) (Result, error) {
	rows, cols := topology.GridDims(pat.Procs)
	net, grid := topology.Mesh(rows, cols)
	return run(pat, net, cfg, replay(pat, func(flows []model.Flow) (*routing.Table, error) {
		return routing.DORMesh(net, grid, flows)
	}))
}

// RunTorus simulates the pattern on a torus with true fully adaptive
// minimal routing, with cfg's link delays (RunBaseline folds it).
func RunTorus(pat *model.Pattern, cfg Config) (Result, error) {
	rows, cols := topology.GridDims(pat.Procs)
	net, grid := topology.Torus(rows, cols)
	return run(pat, net, cfg, adaptive(grid))
}

// RunRing simulates the pattern on a bidirectional ring — the conventional
// home of collective workloads — with true fully adaptive minimal routing
// (the 1×N degenerate case of the torus router).
func RunRing(pat *model.Pattern, cfg Config) (Result, error) {
	net, grid := topology.Ring(pat.Procs)
	return run(pat, net, cfg, adaptive(grid))
}

// RunCrossbar simulates the pattern on the ideal non-blocking crossbar,
// replaying its one-switch routes (routing.CrossbarTable).
func RunCrossbar(pat *model.Pattern, cfg Config) (Result, error) {
	net := topology.Crossbar(pat.Procs)
	return run(pat, net, cfg, replay(pat, func(flows []model.Flow) (*routing.Table, error) {
		return routing.CrossbarTable(net, flows)
	}))
}

// RunGenerated simulates the pattern on a synthesized network using its
// source-routing table. Flows present in the pattern but missing from the
// table (e.g. when running a different application on the network, as in the
// paper's sensitivity study) are routed by shortest path.
func RunGenerated(pat *model.Pattern, net *topology.Network, table *routing.Table, cfg Config) (Result, error) {
	return run(pat, net, cfg, replay(pat, func(flows []model.Flow) (*routing.Table, error) {
		var missing []model.Flow
		for _, f := range flows {
			if _, ok := table.Routes[f]; !ok {
				missing = append(missing, f)
			}
		}
		if len(missing) == 0 {
			return table, nil
		}
		merged, err := shortestPathRoutes(net, missing)
		if err != nil {
			return nil, err
		}
		for f, r := range table.Routes {
			merged.Routes[f] = r
		}
		return merged, nil
	}))
}

// shortestPathRoutes builds shortest-path source routes for the flows,
// assigning link indices round-robin per directed switch pair (in sorted
// flow order) to balance usage within each pipe.
func shortestPathRoutes(net *topology.Network, flows []model.Flow) (*routing.Table, error) {
	t, err := routing.ShortestPath(net, flows)
	if err != nil {
		return nil, err
	}
	next := make(map[[2]topology.SwitchID]int)
	for _, f := range t.SortedFlows() {
		r := t.Routes[f] // Links shares the table's backing array
		for i := 1; i < len(r.Switches); i++ {
			a, b := r.Switches[i-1], r.Switches[i]
			pipe, _ := net.PipeBetween(a, b)
			key := [2]topology.SwitchID{a, b}
			r.Links[i-1] = next[key] % pipe.Width
			next[key]++
		}
	}
	return t, nil
}
