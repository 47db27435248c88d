package flitsim

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/topology"
	"repro/internal/trace"
)

// steppedCycles runs the workload on a private engine and returns the
// simulated length next to the number of cycles run() processed in full.
// stepped has no Observer counter on purpose: runBoth compares counter maps
// with the cycle-stepping oracle, which steps every cycle.
func steppedCycles(t *testing.T, pat *model.Pattern, net *topology.Network, rt router, cfg Config) (exec, stepped int64) {
	t.Helper()
	e := new(engine)
	e.reset(pat, rt, buildFabric(net, cfg.Normalized()))
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	return e.now, e.stepped
}

// TestLeapFires pins that steady wormhole streaming and round-robin
// arbitration are leapt, not stepped: a silently disabled leap, or one
// limited to period 1, must fail here, not just slow a benchmark. Identity
// with the oracle is the equivalence suite's job; this one only counts.
func TestLeapFires(t *testing.T) {
	// One 64 KB message (16,385 flits) over a 3-hop source route: a head
	// fill, one leap to the tail, a drain.
	net, table := lineNet(4)
	one := trace.BuildPhased("one", 4, []trace.PhaseSpec{{Flows: []model.Flow{model.F(0, 3)}, Bytes: 64 << 10}})
	// A moving worm never stalls, so the deadlock timeout must not cap its leap.
	for _, delay := range []int{1, 3} {
		cfg := Config{DeadlockTimeout: 32, LinkDelay: func(a, b topology.SwitchID) int { return delay }}
		exec, stepped := steppedCycles(t, one, net, sourceRouted{table}, cfg)
		if exec <= 16_000 || stepped >= 200 {
			t.Errorf("64 KB over 3 hops, link delay %d: stepped %d of %d cycles, want < 200 of > 16,000", delay, stepped, exec)
		}
	}

	// Two worms sharing one crossbar output take turns on it: a period-2
	// state, leapt like a repeating cycle. Stepping it instead costs a cycle
	// per flit, about 8,200.
	two := trace.BuildPhased("two", 4, []trace.PhaseSpec{{Flows: []model.Flow{model.F(0, 2), model.F(1, 2)}, Bytes: 16 << 10}})
	xnet := topology.Crossbar(4)
	exec, stepped := steppedCycles(t, two, xnet, crossbarRouter(t, xnet), Config{})
	if exec <= 8_000 || stepped >= 200 {
		t.Errorf("two 16 KB worms rotating on one output: stepped %d of %d cycles, want < 200 of > 8,000", stepped, exec)
	}

	// Full-size BT/16 on the crossbar: worms bound for one processor take
	// turns on its ejection channel, a period-4 state (22,082 stepped
	// cycles when only a repeating cycle was leapt).
	bt, err := nas.Generate("BT", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	xnet = topology.Crossbar(16)
	exec, stepped = steppedCycles(t, bt, xnet, crossbarRouter(t, xnet), Config{})
	if exec != 164_592 || stepped >= 4_000 {
		t.Errorf("BT/16 on the crossbar: stepped %d of %d cycles, want < 4,000 of 164,592", stepped, exec)
	}

	// tree-broadcast/16 on the ring, the slowest cell of the paper sweep:
	// periods 2, 3 and 6 (101,743 stepped cycles with single cycles only).
	tb, err := collective.Generate("tree-broadcast", 16, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rnet, rgrid := topology.Ring(16)
	exec, stepped = steppedCycles(t, tb, rnet, tfar{rgrid}, Config{})
	if exec != 111_863 || stepped >= 4_000 {
		t.Errorf("tree-broadcast/16 on the ring: stepped %d of %d cycles, want < 4,000 of 111,863", stepped, exec)
	}
}
