package flitsim

import (
	"testing"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ringNet builds a unidirectional-traffic ring of n switches with two-hop
// clockwise routes — the canonical cyclic-dependency deadlock workload.
func ringNet(n int) (*topology.Network, *routing.Table) {
	net := topology.New("ring", n)
	var sw []topology.SwitchID
	for i := 0; i < n; i++ {
		sw = append(sw, net.AddSwitch())
		net.AttachProc(i, sw[i])
	}
	for i := 0; i < n; i++ {
		net.SetPipe(sw[i], sw[(i+1)%n], 1)
	}
	table := routing.NewTable(net)
	for i := 0; i < n; i++ {
		table.Routes[model.F(i, (i+2)%n)] = routing.Route{
			Switches: []topology.SwitchID{sw[i], sw[(i+1)%n], sw[(i+2)%n]},
			Links:    []int{0, 0},
		}
	}
	return net, table
}

// TestRecoveryStormCompletes is the regression test for the kill/requeue
// bug: repeated deadlock episodes with several packets queued per NI used to
// double-enqueue displaced victims, whose ghost copies then streamed past
// their flit counts and wedged the NI forever. Three back-to-back deadlocking
// phases with a tiny timeout force exactly that storm.
func TestRecoveryStormCompletes(t *testing.T) {
	net, table := ringNet(4)
	var phases []trace.PhaseSpec
	for round := 0; round < 3; round++ {
		var fs []model.Flow
		for i := 0; i < 4; i++ {
			fs = append(fs, model.F(i, (i+2)%4))
		}
		phases = append(phases, trace.PhaseSpec{Flows: fs, Bytes: 4096})
	}
	pat := trace.BuildPhased("storm", 4, phases)
	res, err := runWith(pat, net, sourceRouted{table}, Config{
		VCs: 1, BufFlits: 2, DeadlockTimeout: 128, MaxCycles: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 12 {
		t.Fatalf("delivered %d/12", res.Messages)
	}
	if res.Kills == 0 {
		t.Error("expected deadlock recoveries in the storm workload")
	}
}

// TestTorusEscapeAvoidsDeadlock verifies the Duato-style escape channel: a
// torus under heavy adaptive traffic with long wormholes must complete even
// with recovery effectively disabled (enormous timeout), because VC 0's
// wrap-free dimension-order subnetwork is deadlock-free.
func TestTorusEscapeAvoidsDeadlock(t *testing.T) {
	var phases []trace.PhaseSpec
	for k := 1; k < 6; k++ {
		var fs []model.Flow
		for p := 0; p < 16; p++ {
			fs = append(fs, model.F(p, (p+5*k)%16))
		}
		phases = append(phases, trace.PhaseSpec{Flows: fs, Bytes: 4096})
	}
	pat := trace.BuildPhased("torus-stress", 16, phases)
	res, err := RunTorus(pat, Config{DeadlockTimeout: 10_000_000, MaxCycles: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 5*16 {
		t.Fatalf("delivered %d/%d", res.Messages, 5*16)
	}
	if res.Kills != 0 {
		t.Errorf("kills with recovery disabled: %d (escape should prevent deadlock)", res.Kills)
	}
}
