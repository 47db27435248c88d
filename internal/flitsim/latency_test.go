package flitsim

import (
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// lineNet is n switches in a row, one processor each, with the single source
// route p0 → p(n-1) — contention-free, so latencies are computable by hand.
func lineNet(n int) (*topology.Network, *routing.Table) {
	net := topology.New("line", n)
	sw := make([]topology.SwitchID, n)
	for i := range sw {
		sw[i] = net.AddSwitch()
		net.AttachProc(i, sw[i])
	}
	for i := 1; i < n; i++ {
		net.SetPipe(sw[i-1], sw[i], 1)
	}
	table := routing.NewTable(net)
	table.Routes[model.F(0, n-1)] = routing.Route{Switches: sw, Links: make([]int, n-1)}
	return net, table
}

// TestLatencyAccountingGolden pins the latSum/latMax/latN → Result mapping
// on a hand-analyzable 3-packet script. With all-default knobs and no
// contention, a packet of n flits posted at cycle T streams one flit per
// cycle and its tail crosses three unit-delay channels (inject, s0→s1,
// eject) pipelined behind the head, so it is fully received at T+n+2:
// latency = n+2 exactly.
//
//	m0:   4 B →  2 flits, posted at 10 (send overhead), latency  4
//	m1:  64 B → 17 flits, posted at 20, streams 20..36, latency 19
//	m2: 256 B → 65 flits, posted at 30 but queued behind m1 at the NI
//	    until 36, streams 37..101, tail received at 104, latency 74
//
// p1's receives complete at deliveredAt+recvOverhead: 24, 49, and 114 —
// so ExecCycles is 114, PerProcComm is {3×10 send overhead, 24+25+65
// blocked-receive cycles}, and every flit crosses exactly 3 channels:
// FlitHops = (2+17+65)·3 = 252.
func TestLatencyAccountingGolden(t *testing.T) {
	net, table := lineNet(2)
	pat := trace.BuildPhased("golden3", 2, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1)}, Bytes: 4},
		{Flows: []model.Flow{model.F(0, 1)}, Bytes: 64},
		{Flows: []model.Flow{model.F(0, 1)}, Bytes: 256},
	})
	for _, eng := range []struct {
		name string
		run  func(*model.Pattern, *topology.Network, router, Config) (Result, error)
	}{
		{"event-driven", runWith},
		{"reference", runReference},
	} {
		t.Run(eng.name, func(t *testing.T) {
			res, err := eng.run(pat, net, sourceRouted{table}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages != 3 {
				t.Errorf("Messages = %d, want 3 (latN)", res.Messages)
			}
			if want := (4.0 + 19.0 + 74.0) / 3.0; res.MeanLatency != want {
				t.Errorf("MeanLatency = %v, want %v (latSum/latN)", res.MeanLatency, want)
			}
			if res.MaxLatency != 74 {
				t.Errorf("MaxLatency = %d, want 74 (latMax)", res.MaxLatency)
			}
			if res.ExecCycles != 114 {
				t.Errorf("ExecCycles = %d, want 114", res.ExecCycles)
			}
			if res.FlitHops != 252 {
				t.Errorf("FlitHops = %d, want 252", res.FlitHops)
			}
			if len(res.PerProcComm) != 2 || res.PerProcComm[0] != 30 || res.PerProcComm[1] != 114 {
				t.Errorf("PerProcComm = %v, want [30 114]", res.PerProcComm)
			}
			if want := (30.0 + 114.0) / 2.0; res.CommCycles != want {
				t.Errorf("CommCycles = %v, want %v", res.CommCycles, want)
			}
			if res.Kills != 0 || res.Victims != 0 || res.VCStalls != 0 {
				t.Errorf("contention-free run has Kills=%d Victims=%d VCStalls=%d, want all 0",
					res.Kills, res.Victims, res.VCStalls)
			}
		})
	}
}

// TestFlitHopConservation is the satellite conservation check: whatever
// cycles the event-driven engine skips, every flit must still traverse
// exactly the same links — FlitHops (and the per-channel energy sum built
// from the same counters) must match the reference engine on a real trace.
func TestFlitHopConservation(t *testing.T) {
	pat, err := nas.Generate("CG", 16, nas.Config{Iterations: 1, ByteScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := topology.GridDims(pat.Procs)
	net, grid := topology.Mesh(rows, cols)
	fast, err := runWith(pat, net, meshRouter(t, net, grid), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runReference(pat, net, meshRouter(t, net, grid), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.FlitHops != ref.FlitHops {
		t.Errorf("FlitHops: event-driven %d, reference %d", fast.FlitHops, ref.FlitHops)
	}
	if fast.FlitHops == 0 {
		t.Error("FlitHops = 0; the workload moved no flits")
	}
	if fast.EnergyUnits != ref.EnergyUnits {
		t.Errorf("EnergyUnits: event-driven %v, reference %v", fast.EnergyUnits, ref.EnergyUnits)
	}
}
