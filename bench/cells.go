package main

import (
	"fmt"
	"time"

	"repro/bench/workload"
	"repro/internal/collective"
	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/harness"
	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/topology"
)

// runCell executes one paper cell through the harness as cmd/paperfigs
// configures it (harness.Paper(), worker pool at GOMAXPROCS) — the untraced
// operation — and returns the simulated statistics its rows carry.
func runCell(c *workload.Cell) ([]goldenSim, error) {
	cfg := harness.Paper()
	var sims []goldenSim
	switch c.Kind {
	case "nas", "collective":
		run := cfg.Figure8For
		if c.Kind == "collective" {
			run = cfg.CollectiveFor
		}
		rows, err := run(c.Name, c.Procs)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			sims = append(sims, goldenSim{Topology: r.Topology, ExecCycles: r.ExecCycles})
		}
	case "chiplet":
		rows, err := cfg.Chiplet(c.Name, c.Procs, c.Clusters)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			sims = append(sims, goldenSim{Topology: r.Topology, ExecCycles: r.ExecCycles})
		}
	default:
		return nil, fmt.Errorf("unknown cell kind %q", c.Kind)
	}
	return sims, nil
}

// cell runs one paper cell under a harness.cell root span, then replays the
// module calls the harness made on the same input: generate, Synthesize,
// floorplan.Place, and each flit-level replay. The replayed simulations
// return full flitsim.Results, so this is where FlitHops is checked.
func (rp *replayer) cell(op workload.Op, chk *checker, t *tally) error {
	c := op.Cell
	rp.req++
	t.attempted++
	root := rp.rec.begin("harness.cell", op.Class, rp.req, -1)
	rows, err := runCell(c)
	rp.rec.end(root)
	if err != nil {
		t.fail(err)
		return nil
	}
	if err := chk.cell(c.Key(), rows, false); err != nil {
		t.wrongOutput(err)
	}

	cfg := harness.Paper()
	var pat *model.Pattern
	if c.Kind == "collective" {
		rp.timed("collective.generate", root, func() { pat, err = collective.Generate(c.Name, c.Procs, collective.Config{}) })
	} else {
		rp.timed("nas.generate", root, func() { pat, err = nas.Generate(c.Name, c.Procs, nas.Config{}) })
	}
	if err != nil {
		return err
	}
	opt := synth.Options{Seed: cfg.Seed, Workers: cfg.Workers}
	var res *synth.Result
	rp.model(rp.timed("synth.synthesize_cold", root, func() { res, err = synth.Synthesize(pat, opt) }), pat)
	if err != nil {
		return err
	}
	rp.counts.synth(res.Stats)
	var plan *floorplan.Plan
	rp.timed("floorplan.place", root, func() { plan, err = floorplan.Place(res.Net, floorplan.Options{Seed: cfg.Seed}) })
	if err != nil {
		return err
	}

	var sims []goldenSim
	// sim runs one flit-level replay under the named span and returns the
	// span's id.
	sim := func(span, topo string, run func() (flitsim.Result, error)) (int, error) {
		var r flitsim.Result
		t0 := time.Now()
		id := rp.timed(span, root, func() { r, err = run() })
		rp.counts.simHost += time.Since(t0)
		if err != nil {
			return id, fmt.Errorf("%s on %s: %v", c.Key(), topo, err)
		}
		rp.counts.execCycles += r.ExecCycles
		rp.counts.flitHops += r.FlitHops
		rp.counts.vcStalls += r.VCStalls
		rp.counts.kills += int64(r.Kills)
		sims = append(sims, goldenSim{Topology: topo, ExecCycles: r.ExecCycles, FlitHops: r.FlitHops})
		return id, nil
	}
	runOn := func(topo string) (flitsim.Result, error) {
		switch topo {
		case "crossbar":
			return flitsim.RunCrossbar(pat, flitsim.Config{})
		case "mesh":
			return flitsim.RunMesh(pat, flitsim.Config{})
		case "ring":
			return flitsim.RunRing(pat, flitsim.Config{})
		case "torus":
			// Folded on-chip torus: every link spans two tiles.
			return flitsim.RunTorus(pat, flitsim.Config{LinkDelay: func(a, b topology.SwitchID) int { return 2 }})
		default:
			return flitsim.RunGenerated(pat, res.Net, res.Table, flitsim.Config{LinkDelay: plan.LinkDelay})
		}
	}
	switch c.Kind {
	case "chiplet":
		var two, mom *hier.Design
		rp.timed("hier.synthesize", root, func() {
			two, err = hier.Synthesize(pat, hier.Options{Spec: &hier.Spec{Mode: hier.ModeFlow, K: c.Clusters}, NoC: opt, NoI: opt})
		})
		if err != nil {
			return err
		}
		rp.counts.hier(two)
		// The mesh-of-meshes baseline is built, not synthesized; it stays in
		// the cell's self time.
		if mom, err = hier.MeshOfMeshes(pat, two.Assign, two.GatewayWidth, two.NoILinkDelay); err != nil {
			return err
		}
		if _, err := sim("flitsim.run_generated", "flat", func() (flitsim.Result, error) { return runOn("generated") }); err != nil {
			return err
		}
		for _, org := range []struct {
			topo string
			d    *hier.Design
		}{{"mesh-of-meshes", mom}, {"two-level", two}} {
			id, err := sim("hier.simulate", org.topo, func() (flitsim.Result, error) {
				r, _, err := hier.Simulate(org.d, pat, flitsim.Config{})
				return r, err
			})
			if err != nil {
				return err
			}
			rp.timed("hier.flatten", id, func() { _, err = hier.Flatten(org.d, pat) })
			if err != nil {
				return err
			}
		}
	default:
		topos := harness.Topologies()
		if c.Kind == "collective" {
			topos = harness.CollectiveTopologies()
		}
		for _, topo := range topos {
			topo := topo
			if _, err := sim("flitsim.run_"+topo, topo, func() (flitsim.Result, error) { return runOn(topo) }); err != nil {
				return err
			}
		}
	}
	if err := chk.cell(c.Key(), sims, true); err != nil {
		t.wrongOutput(err)
	}
	return nil
}
