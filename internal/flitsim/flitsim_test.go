package flitsim

import (
	"testing"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

func onePhase(procs int, bytes int, flows ...model.Flow) *model.Pattern {
	return trace.BuildPhased("t", procs, []trace.PhaseSpec{{Label: "p", Flows: flows, Bytes: bytes}})
}

func TestCrossbarSingleMessage(t *testing.T) {
	pat := onePhase(4, 64, model.F(0, 3))
	res, err := RunCrossbar(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 {
		t.Fatalf("delivered %d messages", res.Messages)
	}
	// 64 bytes = 16 body flits + 1 head = 17 flits, inject + eject
	// channels, delay 1 each: latency roughly flits + pipeline depth.
	if res.MeanLatency < 17 || res.MeanLatency > 40 {
		t.Errorf("latency %.1f outside sane window", res.MeanLatency)
	}
	if res.Kills != 0 {
		t.Errorf("unexpected deadlock recoveries: %d", res.Kills)
	}
	if res.ExecCycles <= 0 {
		t.Errorf("exec cycles %d", res.ExecCycles)
	}
}

func TestSelfMessageBypassesNetwork(t *testing.T) {
	pat := onePhase(2, 1024, model.Flow{Src: 1, Dst: 1})
	res, err := RunCrossbar(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlitHops != 0 {
		t.Fatalf("self message used the network: %d flit-hops", res.FlitHops)
	}
}

func TestMeshDORDelivery(t *testing.T) {
	// All-to-one hotspot on a 2x2 mesh: everything must still arrive.
	pat := trace.BuildPhased("hot", 4, []trace.PhaseSpec{
		{Label: "a", Flows: []model.Flow{model.F(1, 0)}, Bytes: 256},
		{Label: "b", Flows: []model.Flow{model.F(2, 0)}, Bytes: 256},
		{Label: "c", Flows: []model.Flow{model.F(3, 0)}, Bytes: 256},
	})
	res, err := RunMesh(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 3 {
		t.Fatalf("delivered %d/3", res.Messages)
	}
	if res.Kills != 0 {
		t.Errorf("DOR mesh cannot deadlock, got %d kills", res.Kills)
	}
}

func TestContentionSlowsMesh(t *testing.T) {
	// Distinct-endpoint flows that share mesh links under X-first DOR on
	// a 4x4 mesh: (0,3) uses 0->1->2->3 and (1,7) uses 1->2->3->7, so
	// links 1->2 and 2->3 are shared. On the crossbar nothing is shared,
	// so it must finish sooner — the contention effect of Section 1.
	flows := []model.Flow{model.F(0, 3), model.F(1, 7)}
	pat := onePhase(16, 4096, flows...)
	mesh, err := RunMesh(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	xbar, err := RunCrossbar(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if mesh.ExecCycles <= xbar.ExecCycles {
		t.Errorf("mesh (%d) not slower than crossbar (%d) under link contention", mesh.ExecCycles, xbar.ExecCycles)
	}
	if mesh.Messages != 2 || xbar.Messages != 2 {
		t.Fatalf("deliveries: mesh %d, xbar %d", mesh.Messages, xbar.Messages)
	}
}

func TestCrossbarEjectionSerialization(t *testing.T) {
	// Three senders to one destination on a crossbar: the single
	// ejection port serializes them, so exec grows roughly with total
	// flits.
	pat := onePhase(4, 1024, model.F(0, 3), model.F(1, 3), model.F(2, 3))
	res, err := RunCrossbar(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	totalFlits := 3 * (1 + 1024/4)
	if res.ExecCycles < int64(totalFlits) {
		t.Errorf("exec %d below ejection serialization bound %d", res.ExecCycles, totalFlits)
	}
}

func TestTorusWrapBeatsMeshOnRingTraffic(t *testing.T) {
	// Edge-to-edge traffic on a 4x4 grid: the torus wrap halves the
	// distance and avoids the shared middle column.
	var flows []model.Flow
	for r := 0; r < 4; r++ {
		flows = append(flows, model.F(r*4, r*4+3))
	}
	pat := onePhase(16, 4096, flows...)
	mesh, err := RunMesh(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := RunTorus(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if torus.ExecCycles > mesh.ExecCycles {
		t.Errorf("torus (%d) slower than mesh (%d) on ring traffic", torus.ExecCycles, mesh.ExecCycles)
	}
}

func TestSourceRoutedGenerated(t *testing.T) {
	// Hand-built two-switch network with explicit routes.
	net := topology.New("gen", 4)
	a, b := net.AddSwitch(), net.AddSwitch()
	net.AttachProc(0, a)
	net.AttachProc(1, a)
	net.AttachProc(2, b)
	net.AttachProc(3, b)
	net.SetPipe(a, b, 2)
	table := routing.NewTable(net)
	table.Routes[model.F(0, 2)] = routing.Route{Switches: []topology.SwitchID{a, b}, Links: []int{0}}
	table.Routes[model.F(1, 3)] = routing.Route{Switches: []topology.SwitchID{a, b}, Links: []int{1}}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	pat := onePhase(4, 4096, model.F(0, 2), model.F(1, 3))
	res, err := RunGenerated(pat, net, table, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 {
		t.Fatalf("delivered %d/2", res.Messages)
	}
	// With separate links the two transfers run concurrently: exec must
	// be well under the serialized time of ~2 messages.
	serial := int64(2 * (1 + 4096/4))
	if res.ExecCycles >= serial {
		t.Errorf("parallel links did not help: exec %d >= serial %d", res.ExecCycles, serial)
	}

	// Same network but both flows squeezed onto link 0: must serialize.
	table.Routes[model.F(1, 3)] = routing.Route{Switches: []topology.SwitchID{a, b}, Links: []int{0}}
	res2, err := RunGenerated(pat, net, table, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ExecCycles <= res.ExecCycles {
		t.Errorf("shared link (%d) not slower than separate links (%d)", res2.ExecCycles, res.ExecCycles)
	}
}

func TestRunGeneratedFallbackRoutes(t *testing.T) {
	// A pattern whose flows are absent from the table must still run
	// (BFS fallback) — the sensitivity-study path.
	net := topology.New("gen", 3)
	a, b := net.AddSwitch(), net.AddSwitch()
	net.AttachProc(0, a)
	net.AttachProc(1, b)
	net.AttachProc(2, b)
	net.SetPipe(a, b, 1)
	table := routing.NewTable(net)
	pat := onePhase(3, 128, model.F(0, 2), model.F(1, 0))
	res, err := RunGenerated(pat, net, table, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 {
		t.Fatalf("delivered %d/2", res.Messages)
	}
}

func TestDeterminism(t *testing.T) {
	pat, err := patFFT()
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunMesh(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMesh(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles || a.CommCycles != b.CommCycles || a.FlitHops != b.FlitHops {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func patFFT() (*model.Pattern, error) {
	// A small phase-parallel workload exercising multiple phases.
	var phases []trace.PhaseSpec
	for k := 1; k < 4; k++ {
		var fs []model.Flow
		for p := 0; p < 8; p++ {
			fs = append(fs, model.F(p, (p+k)%8))
		}
		phases = append(phases, trace.PhaseSpec{Flows: fs, Bytes: 512, ComputeAfter: 4})
	}
	return trace.BuildPhased("mini", 8, phases), nil
}

func TestComputeGapsExtendExecution(t *testing.T) {
	base := trace.BuildPhased("nogap", 4, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1)}, Bytes: 64},
	})
	gap := trace.BuildPhased("gap", 4, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 1)}, Bytes: 64, ComputeAfter: 100},
	})
	r1, err := RunCrossbar(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCrossbar(gap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := int64(100 * traceUnitCycles)
	if r2.ExecCycles-r1.ExecCycles < wantExtra {
		t.Errorf("compute gap added only %d cycles, want >= %d", r2.ExecCycles-r1.ExecCycles, wantExtra)
	}
	// Compute is not communication: comm time must be unchanged.
	if r2.CommCycles != r1.CommCycles {
		t.Errorf("comm time changed by compute gap: %.1f vs %.1f", r2.CommCycles, r1.CommCycles)
	}
}

func TestLinkDelayLengthensLatency(t *testing.T) {
	pat := onePhase(4, 256, model.F(0, 3))
	short, err := RunMesh(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunMesh(pat, Config{
		LinkDelay: func(a, b topology.SwitchID) int { return 5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if long.MeanLatency <= short.MeanLatency {
		t.Errorf("longer links not slower: %.1f vs %.1f", long.MeanLatency, short.MeanLatency)
	}
}

func TestDeadlockRecoveryOnRing(t *testing.T) {
	// Force a classic cyclic wormhole deadlock: a unidirectional ring of
	// 4 switches with 1 VC, tiny buffers, and four long messages each
	// going two hops clockwise, all simultaneously. With every VC
	// waiting on the next, only the timeout recovery can finish this.
	net := topology.New("ring", 4)
	var sw []topology.SwitchID
	for i := 0; i < 4; i++ {
		sw = append(sw, net.AddSwitch())
		net.AttachProc(i, sw[i])
	}
	for i := 0; i < 4; i++ {
		net.SetPipe(sw[i], sw[(i+1)%4], 1)
	}
	table := routing.NewTable(net)
	for i := 0; i < 4; i++ {
		table.Routes[model.F(i, (i+2)%4)] = routing.Route{
			Switches: []topology.SwitchID{sw[i], sw[(i+1)%4], sw[(i+2)%4]},
			Links:    []int{0, 0},
		}
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	var flows []model.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, model.F(i, (i+2)%4))
	}
	pat := onePhase(4, 4096, flows...)
	res, err := runWith(pat, net, sourceRouted{table}, Config{
		VCs: 1, BufFlits: 2, DeadlockTimeout: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 4 {
		t.Fatalf("delivered %d/4 after recovery", res.Messages)
	}
	if res.Kills == 0 {
		t.Error("expected at least one deadlock recovery on the ring")
	}
}

func TestNoDeadlockWithPaperConfig(t *testing.T) {
	// The same ring workload with 3 VCs still cannot deadlock-free
	// guarantee, but the paper's observation was zero deadlocks on its
	// traces; verify the torus TFAR path on a real exchange pattern.
	var flows []model.Flow
	for p := 0; p < 16; p++ {
		flows = append(flows, model.F(p, 15-p))
	}
	pat := onePhase(16, 1024, flows...)
	res, err := RunTorus(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 16 {
		t.Fatalf("delivered %d/16", res.Messages)
	}
}

func TestPeakLinkUtilBounded(t *testing.T) {
	pat, _ := patFFT()
	res, err := RunMesh(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakLinkUtil < 0 || res.PeakLinkUtil > 1 {
		t.Fatalf("peak utilization %f out of [0,1]", res.PeakLinkUtil)
	}
	if res.PeakLinkUtil == 0 {
		t.Error("no link carried traffic")
	}
}

func TestMismatchedProcsRejected(t *testing.T) {
	pat := onePhase(4, 64, model.F(0, 1))
	net := topology.Crossbar(8)
	if _, err := runWith(pat, net, crossbarRouter(t, net), Config{}); err == nil {
		t.Fatal("proc-count mismatch accepted")
	}
}

func TestCommTimeIncludesOverheads(t *testing.T) {
	pat := onePhase(2, 64, model.F(0, 1))
	res, err := RunCrossbar(pat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Proc 0 pays >= send overhead, proc 1 >= recv overhead.
	if res.PerProcComm[0] < 10 {
		t.Errorf("sender comm %d < send overhead", res.PerProcComm[0])
	}
	if res.PerProcComm[1] < 10 {
		t.Errorf("receiver comm %d < recv overhead", res.PerProcComm[1])
	}
}

func TestPhaselessPatternFallback(t *testing.T) {
	// Raw traces without phase metadata run in conservative trace-driven
	// mode: one synthetic phase per message in start order.
	p := &model.Pattern{Name: "raw", Procs: 3, Messages: []model.Message{
		{ID: 0, Src: 0, Dst: 1, Start: 0, Finish: 1, Bytes: 64},
		{ID: 1, Src: 1, Dst: 2, Start: 2, Finish: 3, Bytes: 64},
	}}
	res, err := RunCrossbar(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 {
		t.Fatalf("delivered %d/2", res.Messages)
	}
}

func TestExecTimeNs(t *testing.T) {
	r := Result{ExecCycles: 800}
	if ns := r.ExecTimeNs(); ns != 1000 {
		t.Errorf("800 cycles at 800 MHz = %f ns, want 1000", ns)
	}
}

// TestRunGeneratedFallbackRoundRobin pins the link assignment of the
// shortest-path fallback: flows the table lacks that cross the same directed
// switch pair are spread round-robin over the pipe's links, so two of them on
// a width-2 pipe replay exactly like the hand-written separate-link table.
func TestRunGeneratedFallbackRoundRobin(t *testing.T) {
	net := topology.New("gen", 4)
	a, b := net.AddSwitch(), net.AddSwitch()
	net.AttachProc(0, a)
	net.AttachProc(1, a)
	net.AttachProc(2, b)
	net.AttachProc(3, b)
	net.SetPipe(a, b, 2)
	pat := onePhase(4, 4096, model.F(0, 2), model.F(1, 3))
	run := func(links ...int) Result {
		t.Helper()
		table := routing.NewTable(net)
		for i, f := range pat.Flows()[:len(links)] {
			table.Routes[f] = routing.Route{Switches: []topology.SwitchID{a, b}, Links: links[i : i+1]}
		}
		res, err := RunGenerated(pat, net, table, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fallback, separate, shared := run(), run(0, 1), run(0, 0)
	if fallback.ExecCycles != separate.ExecCycles || fallback.FlitHops != separate.FlitHops {
		t.Errorf("fallback replay %d cycles / %d hops, separate links %d / %d",
			fallback.ExecCycles, fallback.FlitHops, separate.ExecCycles, separate.FlitHops)
	}
	if fallback.ExecCycles >= shared.ExecCycles {
		t.Errorf("fallback (%d cycles) no faster than one shared link (%d)", fallback.ExecCycles, shared.ExecCycles)
	}
}

// TestEnergyAccounting pins the energy model's weights on one 256-byte
// message corner to corner of a 2×2 mesh: 65 flits (64 payload plus the
// head) cross the injection channel, two switch links and the ejection
// channel, each flit paying 1.0 per traversal plus 0.5 per cycle of link
// delay. Processor channels always have delay 1.
func TestEnergyAccounting(t *testing.T) {
	pat := onePhase(4, 256, model.F(0, 3))
	for _, tc := range []struct {
		delay int
		want  float64
	}{
		{1, 65 * 4 * (1 + 0.5)},             // 390
		{3, 65 * (2*(1+0.5) + 2*(1+0.5*3))}, // 520
	} {
		res, err := RunMesh(pat, Config{LinkDelay: func(a, b topology.SwitchID) int { return tc.delay }})
		if err != nil {
			t.Fatal(err)
		}
		if res.Kills != 0 || res.EnergyUnits != tc.want {
			t.Errorf("link delay %d: %.1f energy units (%d kills), want %.1f", tc.delay, res.EnergyUnits, res.Kills, tc.want)
		}
	}
}

// TestNegativeBuffersRejected: a negative VC count or buffer depth is an
// error from every Run*, not a panic sizing the buffers.
func TestNegativeBuffersRejected(t *testing.T) {
	pat := onePhase(4, 64, model.F(0, 3))
	net := topology.Crossbar(4)
	table, err := routing.CrossbarTable(net, pat.Flows())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{VCs: -1}, {BufFlits: -1}} {
		for _, topo := range []string{"crossbar", "mesh", "ring", "torus"} {
			if _, err := RunBaseline(pat, topo, cfg); err == nil {
				t.Errorf("%s accepted VCs %d, BufFlits %d", topo, cfg.VCs, cfg.BufFlits)
			}
		}
		if _, err := RunGenerated(pat, net, table, cfg); err == nil {
			t.Errorf("generated accepted VCs %d, BufFlits %d", cfg.VCs, cfg.BufFlits)
		}
	}
}
