package flitsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/trace"
)

// runWith is run under the fixed router rt.
func runWith(pat *model.Pattern, net *topology.Network, rt router, cfg Config) (Result, error) {
	return run(pat, net, cfg, func() (router, error) { return rt, nil })
}

// buildFabric lays out a private fabric of net under cfg, for the engines
// tests drive without the pool.
func buildFabric(net *topology.Network, cfg Config) *fabric {
	fb := new(fabric)
	fb.build(net, cfg)
	return fb
}

// runReference is runWith on the cycle-stepping oracle of engine_ref_test.go:
// the same normalised configuration and fabric, simulateReference in place
// of simulate. Every suite that needs the reference goes through here.
func runReference(pat *model.Pattern, net *topology.Network, rt router, cfg Config) (Result, error) {
	cfg = cfg.Normalized()
	return simulateReference(pat, rt, buildFabric(net, cfg))
}

// meshRouter and crossbarRouter replay the mesh's and the crossbar's
// routing tables as RunMesh and RunCrossbar do, built over every flow of the
// network's processors so that one router serves any pattern on it.
func meshRouter(tb testing.TB, net *topology.Network, grid topology.Grid) router {
	tb.Helper()
	table, err := routing.DORMesh(net, grid, everyFlow(net.Procs))
	if err != nil {
		tb.Fatal(err)
	}
	return sourceRouted{table}
}

func crossbarRouter(tb testing.TB, net *topology.Network) router {
	tb.Helper()
	table, err := routing.CrossbarTable(net, everyFlow(net.Procs))
	if err != nil {
		tb.Fatal(err)
	}
	return sourceRouted{table}
}

// everyFlow lists the flows between every ordered pair of distinct
// processors.
func everyFlow(procs int) []model.Flow {
	var flows []model.Flow
	for s := 0; s < procs; s++ {
		for d := 0; d < procs; d++ {
			if s != d {
				flows = append(flows, model.F(s, d))
			}
		}
	}
	return flows
}

// runBoth runs the same workload through the event-driven engine and the
// cycle-stepping reference and requires byte-identical Results, identical
// error behavior, identical Observer counter maps, and an identical
// flitsim.kill event sequence. It returns the (shared) Result.
func runBoth(t *testing.T, name string, pat *model.Pattern, net *topology.Network, rt router, cfg Config) Result {
	t.Helper()
	fastCol, refCol := obs.NewCollector(), obs.NewCollector()
	fcfg := cfg
	fcfg.Obs = fastCol
	fastRes, fastErr := runWith(pat, net, rt, fcfg)
	rcfg := cfg
	rcfg.Obs = refCol
	refRes, refErr := runReference(pat, net, rt, rcfg)

	switch {
	case (fastErr == nil) != (refErr == nil):
		t.Fatalf("%s: error mismatch: event-driven %v, reference %v", name, fastErr, refErr)
	case fastErr != nil && fastErr.Error() != refErr.Error():
		t.Fatalf("%s: error text mismatch:\n  event-driven: %v\n  reference:    %v", name, fastErr, refErr)
	}
	if !reflect.DeepEqual(fastRes, refRes) {
		t.Fatalf("%s: Result mismatch:\n  event-driven: %+v\n  reference:    %+v", name, fastRes, refRes)
	}
	if fc, rc := fastCol.Counters(), refCol.Counters(); !reflect.DeepEqual(fc, rc) {
		t.Fatalf("%s: Observer counters mismatch:\n  event-driven: %v\n  reference:    %v", name, fc, rc)
	}
	// Kill events carry the victim identity and cycle number, so matching
	// sequences pin the recovery schedule exactly (timestamps are wall
	// clock and excluded).
	kills := func(c *obs.Collector) []string {
		var out []string
		for _, ev := range c.Events() {
			if ev.Name == "flitsim.kill" {
				out = append(out, ev.Detail)
			}
		}
		return out
	}
	if fk, rk := kills(fastCol), kills(refCol); !reflect.DeepEqual(fk, rk) {
		t.Fatalf("%s: kill sequence mismatch:\n  event-driven: %v\n  reference:    %v", name, fk, rk)
	}
	return fastRes
}

// nasPattern generates a simulation-sized NAS trace for equivalence runs.
func nasPattern(t *testing.T, bench string) *model.Pattern {
	t.Helper()
	pat, err := nas.Generate(bench, 16, nas.Config{Iterations: 1, ByteScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

// TestEngineEquivalenceNAS pins the event-driven engine to the reference on
// every NAS benchmark across the three topology families the paper
// evaluates: mesh (dimension-order), torus (true fully adaptive with escape
// channels), and a synthesized custom topology (source-routed).
func TestEngineEquivalenceNAS(t *testing.T) {
	for _, bench := range nas.Names() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			pat := nasPattern(t, bench)

			rows, cols := topology.GridDims(pat.Procs)
			mnet, mgrid := topology.Mesh(rows, cols)
			runBoth(t, bench+"/mesh", pat, mnet, meshRouter(t, mnet, mgrid), Config{})

			tnet, tgrid := topology.Torus(rows, cols)
			runBoth(t, bench+"/torus", pat, tnet, tfar{tgrid}, Config{})

			syn, err := synth.Synthesize(pat, synth.Options{Seed: 1, Restarts: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			runBoth(t, bench+"/synth", pat, syn.Net, sourceRouted{syn.Table}, Config{})
		})
	}
}

// TestEngineEquivalenceDeadlockRecovery exercises the regressive-recovery
// path on both engines: the cyclic ring deadlock storm (repeated kills
// across phases) and the single-channel starvation workload (one victim
// killed repeatedly with doubling timeouts). Recovery runs on a 32-cycle
// cadence that the event-driven engine must hit exactly even while
// fast-forwarding.
func TestEngineEquivalenceDeadlockRecovery(t *testing.T) {
	net, table := ringNet(4)
	var phases []trace.PhaseSpec
	for round := 0; round < 3; round++ {
		var fs []model.Flow
		for i := 0; i < 4; i++ {
			fs = append(fs, model.F(i, (i+2)%4))
		}
		phases = append(phases, trace.PhaseSpec{Flows: fs, Bytes: 4096})
	}
	storm := trace.BuildPhased("storm", 4, phases)
	res := runBoth(t, "ring-storm", storm, net, sourceRouted{table}, Config{
		VCs: 1, BufFlits: 2, DeadlockTimeout: 128, MaxCycles: 5_000_000,
	})
	if res.Kills == 0 {
		t.Error("ring-storm produced no kills; the recovery path was not exercised")
	}

	pnet, ptable := pairNet()
	starve := trace.BuildPhased("starve", 4, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 2), model.F(1, 3)}, Bytes: 16384},
	})
	res = runBoth(t, "pair-starve", starve, pnet, sourceRouted{ptable}, Config{
		VCs: 1, BufFlits: 4, DeadlockTimeout: 256, MaxCycles: 2_000_000,
	})
	if res.Kills < 2 {
		t.Errorf("pair-starve Kills = %d, want >= 2", res.Kills)
	}
	// The winner streams ~4,100 cycles while the loser's head stalls in its
	// injection VC: every recovery tick, kill and retransmit backoff of the
	// loser lands inside what would otherwise be one leap of the winner —
	// also with deeper link pipelines and a timeout off the 32-cycle grid.
	for _, c := range []struct{ delay, buf, timeout int }{{3, 4, 100}, {2, 2, 256}, {4, 8, 1000}} {
		res = runBoth(t, fmt.Sprintf("pair-starve/delay%d", c.delay), starve, pnet, sourceRouted{ptable}, Config{
			VCs: 1, BufFlits: c.buf, DeadlockTimeout: c.timeout, MaxCycles: 2_000_000,
			LinkDelay: func(a, b topology.SwitchID) int { return c.delay },
		})
		if res.Kills == 0 {
			t.Errorf("pair-starve/delay%d: no kill landed inside the winner's stream", c.delay)
		}
	}
}

// TestEngineEquivalenceWedged pins the MaxCycles error path: a permanent
// cyclic deadlock with recovery effectively disabled must wedge both
// engines at the same cycle with the same error, partial Result, and
// counters.
func TestEngineEquivalenceWedged(t *testing.T) {
	net, table := ringNet(4)
	var fs []model.Flow
	for i := 0; i < 4; i++ {
		fs = append(fs, model.F(i, (i+2)%4))
	}
	pat := trace.BuildPhased("wedge", 4, []trace.PhaseSpec{{Flows: fs, Bytes: 4096}})
	res := runBoth(t, "wedge", pat, net, sourceRouted{table}, Config{
		VCs: 1, BufFlits: 2, DeadlockTimeout: 40_000, MaxCycles: 30_000,
	})
	if res.Messages == len(fs) {
		t.Error("wedge workload completed; the MaxCycles path was not exercised")
	}

	// A horizon that falls mid-stream: the leap over a 64 KB worm must stop
	// at MaxCycles with the same partial flit counts.
	lnet, ltable := lineNet(4)
	long := trace.BuildPhased("long", 4, []trace.PhaseSpec{{Flows: []model.Flow{model.F(0, 3)}, Bytes: 64 << 10}})
	res = runBoth(t, "horizon", long, lnet, sourceRouted{ltable}, Config{MaxCycles: 5_000})
	if res.Messages != 0 || res.FlitHops == 0 {
		t.Errorf("horizon workload: Messages = %d, FlitHops = %d, want a worm cut off mid-stream", res.Messages, res.FlitHops)
	}
}

// shiftPattern has every processor send bytes to the processor k places on,
// one phase per k: a permutation per phase, so worms stream concurrently.
func shiftPattern(procs, bytes int, ks ...int) *model.Pattern {
	var phases []trace.PhaseSpec
	for _, k := range ks {
		var fs []model.Flow
		for p := 0; p < procs; p++ {
			fs = append(fs, model.F(p, (p+k)%procs))
		}
		phases = append(phases, trace.PhaseSpec{Flows: fs, Bytes: bytes})
	}
	return trace.BuildPhased("shift", procs, phases)
}

// TestEngineEquivalenceStreaming pins the engines together where the
// event-driven one leaps: 16 KB messages (4,097 flits, so single leaps span
// well over 1,000 cycles) on every router, and link pipelines one to four
// cycles deep — the folded torus runs at 2, floorplanned links deeper — on
// mesh, torus and a synthesized network with a pipe more than one link wide.
func TestEngineEquivalenceStreaming(t *testing.T) {
	const procs = 8
	pat := shiftPattern(procs, 16<<10, 1, 3, 4)
	rows, cols := topology.GridDims(procs)
	mnet, mgrid := topology.Mesh(rows, cols)
	mdor := meshRouter(t, mnet, mgrid)
	tnet, tgrid := topology.Torus(rows, cols)
	rnet, rgrid := topology.Ring(procs)

	all := shiftPattern(procs, 16<<10, 1, 2, 3, 4, 5, 6, 7)
	opts := synth.Options{Seed: 1, Restarts: 2, Workers: 1}
	opts.MaxDegree = 3
	syn, err := synth.Synthesize(all, opts)
	if err != nil {
		t.Fatal(err)
	}
	wide := 0
	for _, p := range syn.Net.Pipes {
		wide = max(wide, p.Width)
	}
	if wide < 2 {
		t.Fatalf("synthesized network has no pipe wider than one link; pick a pattern that needs one")
	}

	for delay := 1; delay <= 4; delay++ {
		t.Run(fmt.Sprintf("delay%d", delay), func(t *testing.T) {
			t.Parallel()
			cfg := Config{LinkDelay: func(a, b topology.SwitchID) int { return delay }}
			runBoth(t, "mesh", pat, mnet, mdor, cfg)
			runBoth(t, "torus", pat, tnet, tfar{tgrid}, cfg)
			runBoth(t, "synth", all, syn.Net, sourceRouted{syn.Table}, cfg)
		})
	}
	t.Run("crossbar", func(t *testing.T) {
		t.Parallel()
		xnet := topology.Crossbar(procs)
		xbar := crossbarRouter(t, xnet)
		runBoth(t, "crossbar", pat, xnet, xbar, Config{})
		// One hot destination: three worms rotate for p7's ejection
		// channel, the short ones finish, the long one leaps alone until
		// a fourth joins the arbitration — whose rr the leap must have
		// left exact.
		hot := trace.BuildPhased("hot", procs, []trace.PhaseSpec{
			{Flows: []model.Flow{model.F(0, 7), model.F(1, 7), model.F(2, 7), model.F(3, 4)}, Bytes: 16 << 10},
			{Flows: []model.Flow{model.F(3, 7)}, Bytes: 8 << 10},
		})
		hot.Messages[1].Bytes, hot.Messages[2].Bytes, hot.Messages[3].Bytes = 256, 1024, 64
		for vcs := 1; vcs <= 3; vcs++ {
			runBoth(t, fmt.Sprintf("hot/vc%d", vcs), hot, xnet, xbar, Config{VCs: vcs})
		}
	})
	t.Run("ring", func(t *testing.T) {
		t.Parallel()
		runBoth(t, "ring", pat, rnet, tfar{rgrid}, Config{})
	})
}

// hotPattern streams one phase of worms that share outputs: every flow in
// groups sends to the group's last processor, so each group's worms take
// turns there. bytes[i] sizes the i-th flow; uneven sizes put the tails at
// different offsets within a period.
func hotPattern(procs int, groups [][]int, bytes ...int) *model.Pattern {
	var fs []model.Flow
	for _, g := range groups {
		for _, src := range g[:len(g)-1] {
			fs = append(fs, model.F(src, g[len(g)-1]))
		}
	}
	pat := trace.BuildPhased("hot", procs, []trace.PhaseSpec{{Flows: fs, Bytes: 1}})
	for i := range pat.Messages {
		pat.Messages[i].Bytes = bytes[i%len(bytes)]
	}
	return pat
}

// TestEngineEquivalencePeriodic pins the engines together where the
// event-driven one leaps whole periods: two and three worms rotating on one
// output (periods 2 and 3), and both at once (period 6), on the crossbar,
// mesh and ring, with one to three VCs and link pipelines one to four deep —
// deeper than the period, so the pipeline check matters. Around them: a
// MaxCycles horizon at every offset of a period, a worm stalled behind the
// rotation whose recovery ticks and kills fall mid-period, and tails due
// inside what would otherwise be one leap.
func TestEngineEquivalencePeriodic(t *testing.T) {
	const procs = 8
	sizes := []int{4096, 4100, 4104, 4108, 4112}
	pats := []struct {
		name string
		pat  *model.Pattern
	}{
		{"two", hotPattern(procs, [][]int{{0, 1, 7}}, sizes...)},
		{"three", hotPattern(procs, [][]int{{0, 1, 2, 7}}, sizes...)},
		{"lcm6", hotPattern(procs, [][]int{{0, 1, 7}, {2, 3, 4, 6}}, sizes...)},
	}
	rows, cols := topology.GridDims(procs)
	mnet, mgrid := topology.Mesh(rows, cols)
	mdor := meshRouter(t, mnet, mgrid)
	rnet, rgrid := topology.Ring(procs)
	xnet := topology.Crossbar(procs)
	xbar := crossbarRouter(t, xnet)
	for _, p := range pats {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for vcs := 1; vcs <= 3; vcs++ {
				runBoth(t, fmt.Sprintf("crossbar/vc%d", vcs), p.pat, xnet, xbar, Config{VCs: vcs})
				for delay := 1; delay <= 4; delay++ {
					cfg := Config{VCs: vcs, LinkDelay: func(a, b topology.SwitchID) int { return delay }}
					runBoth(t, fmt.Sprintf("mesh/vc%d/delay%d", vcs, delay), p.pat, mnet, mdor, cfg)
					runBoth(t, fmt.Sprintf("ring/vc%d/delay%d", vcs, delay), p.pat, rnet, tfar{rgrid}, cfg)
				}
			}
		})
	}

	lcm6 := pats[2].pat
	// The cases above must reach the leap they are here to check: with
	// three VCs the two rotations make a period-6 state on the ring and,
	// behind two-cycle links, on the mesh. (On the crossbar ejection's rr
	// doubles both periods, to 4 and 6; their lcm, 12, is stepped.)
	for _, c := range []struct {
		name   string
		net    *topology.Network
		router router
		delay  int
	}{{"ring", rnet, tfar{rgrid}, 1}, {"mesh", mnet, mdor, 2}} {
		cfg := Config{LinkDelay: func(a, b topology.SwitchID) int { return c.delay }}
		if exec, stepped := steppedCycles(t, lcm6, c.net, c.router, cfg); stepped*10 > exec {
			t.Errorf("lcm6 on the %s: stepped %d of %d cycles, want the period leap to fire", c.name, stepped, exec)
		}
	}
	t.Run("horizon", func(t *testing.T) {
		t.Parallel()
		for mc := int64(2000); mc < 2006; mc++ {
			res := runBoth(t, fmt.Sprintf("horizon%d", mc), lcm6, rnet, tfar{rgrid}, Config{MaxCycles: mc})
			if res.Messages == len(lcm6.Messages) {
				t.Fatalf("horizon %d: every message delivered; the wedge path was not exercised", mc)
			}
		}
	})
	t.Run("stalled", func(t *testing.T) {
		t.Parallel()
		// Two ejection VCs at p7 for three worms: two rotate while the
		// third's head waits for a VC, a non-mover whose timeout — off
		// the 32-cycle grid — ends each leap at a recovery tick.
		three := pats[1].pat
		for _, timeout := range []int{64, 100, 333} {
			res := runBoth(t, fmt.Sprintf("stalled/timeout%d", timeout), three, xnet, xbar, Config{VCs: 2, DeadlockTimeout: timeout})
			if res.Kills == 0 {
				t.Errorf("stalled/timeout%d: no kill landed inside the rotation", timeout)
			}
		}
	})
	t.Run("credits", func(t *testing.T) {
		t.Parallel()
		// Two- and three-flit buffers behind links of mixed depth: credit
		// bursts that a pipeline can hold without the period's moves or
		// balance showing them.
		for buf := 2; buf <= 3; buf++ {
			for salt := 0; salt < 2; salt++ {
				cfg := Config{BufFlits: buf, LinkDelay: func(a, b topology.SwitchID) int { return 1 + (int(a)*5+int(b)*3+salt)%4 }}
				for _, p := range pats {
					for vcs := 1; vcs <= 3; vcs++ {
						cfg.VCs = vcs
						name := fmt.Sprintf("credits/%s/buf%d/salt%d/vc%d", p.name, buf, salt, vcs)
						runBoth(t, name+"/mesh", p.pat, mnet, mdor, cfg)
						runBoth(t, name+"/ring", p.pat, rnet, tfar{rgrid}, cfg)
					}
				}
			}
		}
	})
	t.Run("tails", func(t *testing.T) {
		t.Parallel()
		// Short worms join and leave the rotation: each tail is due a
		// different offset into a period.
		short := hotPattern(procs, [][]int{{0, 1, 2, 3, 7}}, 16<<10, 260, 1028, 2052)
		for vcs := 2; vcs <= 3; vcs++ {
			runBoth(t, fmt.Sprintf("tails/vc%d", vcs), short, xnet, xbar, Config{VCs: vcs})
			runBoth(t, fmt.Sprintf("tails/mesh/vc%d", vcs), short, mnet, mdor, Config{VCs: vcs})
		}
	})
}

// TestEngineEquivalenceWorklists pins the engines together on the states
// the event-driven engine's worklists (DESIGN.md §8) must get right: a
// recovery kill of a packet whose head waits for VC allocation, which leaves
// its channel's allocation bit set for the next pass to drop; self-messages,
// whose readyAt postSend sets; a receive whose message was ejected before
// its NI reached the op, so the ejection sets no wake; and heads stalled
// for thousands of cycles on an ejection channel's only VC, whose channels
// stay on the allocation worklist all that time; and a recovery tie
// between two packets stalled from the same cycle, which the earliest
// created must lose.
func TestEngineEquivalenceWorklists(t *testing.T) {
	t.Run("kill-unrouted", func(t *testing.T) {
		// One 1-VC link for two worms: the loser's head waits in its
		// injection VC for the link's VC until it is killed.
		pnet, ptable := pairNet()
		starve := trace.BuildPhased("starve", 4, []trace.PhaseSpec{
			{Flows: []model.Flow{model.F(0, 2), model.F(1, 3)}, Bytes: 4096},
		})
		res := runBoth(t, "pair", starve, pnet, sourceRouted{ptable}, Config{VCs: 1, BufFlits: 3, DeadlockTimeout: 96})
		if res.Kills == 0 || res.VCStalls == 0 {
			t.Errorf("pair: Kills = %d, VCStalls = %d; want a stalled head killed", res.Kills, res.VCStalls)
		}
		// The ring's cyclic deadlock: every head waits at a switch for
		// the link its successor holds, and one of them is killed.
		rnet, rtable := ringNet(4)
		var fs []model.Flow
		for i := 0; i < 4; i++ {
			fs = append(fs, model.F(i, (i+2)%4))
		}
		storm := trace.BuildPhased("storm", 4, []trace.PhaseSpec{{Flows: fs, Bytes: 1024}})
		res = runBoth(t, "ring", storm, rnet, sourceRouted{rtable}, Config{VCs: 1, BufFlits: 2, DeadlockTimeout: 64})
		if res.Kills == 0 {
			t.Error("ring: no kill")
		}
	})
	const procs = 8
	rows, cols := topology.GridDims(procs)
	mnet, mgrid := topology.Mesh(rows, cols)
	mdor := meshRouter(t, mnet, mgrid)
	xnet := topology.Crossbar(procs)
	xbar := crossbarRouter(t, xnet)
	t.Run("self", func(t *testing.T) {
		pat := trace.BuildPhased("self", procs, []trace.PhaseSpec{
			{Flows: []model.Flow{model.F(0, 0), model.F(3, 3), model.F(0, 5)}, Bytes: 256, ComputeAfter: 3},
			{Flows: []model.Flow{model.F(5, 0), model.F(6, 6)}, Bytes: 64},
			{Flows: []model.Flow{model.F(2, 2)}, Bytes: 16, ComputeAfter: 1},
		})
		res := runBoth(t, "mesh", pat, mnet, mdor, Config{})
		if res.Messages != 2 {
			t.Errorf("Messages = %d, want the 2 that cross the network", res.Messages)
		}
		runBoth(t, "crossbar", pat, xnet, xbar, Config{VCs: 1})
	})
	t.Run("early", func(t *testing.T) {
		// p2 receives a 16 KB worm, then a 16-byte message posted at the
		// same cycle, which is ejected thousands of cycles before p2
		// reaches its receive. p1 (after its first-phase post) and p3 (at
		// once) post their second-phase messages to p2 too, and those
		// land while p2 is still receiving the worm.
		pat := trace.BuildPhased("early", procs, []trace.PhaseSpec{
			{Flows: []model.Flow{model.F(0, 2), model.F(1, 2)}, Bytes: 16 << 10},
			{Flows: []model.Flow{model.F(1, 2), model.F(3, 2)}, Bytes: 16, ComputeAfter: 2},
		})
		pat.Messages[1].Bytes = 16
		runBoth(t, "crossbar", pat, xnet, xbar, Config{})
		runBoth(t, "mesh", pat, mnet, mdor, Config{VCs: 2})
	})
	t.Run("ejection-stall", func(t *testing.T) {
		// Three 16 KB worms for p7's one ejection VC: two heads wait at
		// p7's switch, one for about 4,100 cycles and one for 8,200, with
		// no recovery tick long enough to kill them.
		pat := trace.BuildPhased("hot", procs, []trace.PhaseSpec{
			{Flows: []model.Flow{model.F(0, 7), model.F(1, 7), model.F(4, 7)}, Bytes: 16 << 10},
		})
		for _, c := range []struct {
			name   string
			net    *topology.Network
			router router
		}{{"crossbar", xnet, xbar}, {"mesh", mnet, mdor}} {
			res := runBoth(t, c.name, pat, c.net, c.router, Config{VCs: 1, DeadlockTimeout: 1 << 20})
			if res.VCStalls < 8_000 || res.Kills != 0 {
				t.Errorf("%s: VCStalls = %d, Kills = %d; want heads pending on the ejection VC for thousands of cycles, unkilled",
					c.name, res.VCStalls, res.Kills)
			}
		}
	})
	t.Run("victim-tie", func(t *testing.T) {
		// Four 256-byte messages for p1's one ejection VC, listed so that
		// message IDs (p4 0, p2 1, p7 2, p6 3) disagree with the NI order
		// that creates them. p6's and p7's heads wait from the same cycle;
		// the first kill must take p6's, created first though its ID is
		// higher, and though netPackets lists p7's first once p2's
		// delivered packet is swap-removed.
		pat := trace.BuildPhased("tie", procs, []trace.PhaseSpec{
			{Flows: []model.Flow{model.F(4, 1), model.F(2, 1), model.F(7, 1), model.F(6, 1)}, Bytes: 256},
		})
		if res := runBoth(t, "crossbar", pat, xnet, xbar, Config{VCs: 1, BufFlits: 5, DeadlockTimeout: 64}); res.Kills == 0 {
			t.Error("no kill")
		}
	})
}

// drawCase draws a small phased workload — random flows, sizes from 16 B to
// 16<<(sizeExps-1) B, compute gaps — and simulator knobs, taking every choice
// from draw (rand.Intn, or the next fuzz byte).
func drawCase(draw func(n int) int, procs, sizeExps int) (*model.Pattern, Config) {
	timeouts := []int{64, 256, 8192}
	nPhases := 1 + draw(4)
	var phases []trace.PhaseSpec
	for i := 0; i < nPhases; i++ {
		var fs []model.Flow
		nFlows := 1 + draw(procs)
		for j := 0; j < nFlows; j++ {
			src := draw(procs)
			dst := draw(procs)
			fs = append(fs, model.F(src, dst))
		}
		phases = append(phases, trace.PhaseSpec{
			Flows:        fs,
			Bytes:        1 << (4 + draw(sizeExps)),
			ComputeAfter: float64(draw(200)),
		})
	}
	return trace.BuildPhased("rand", procs, phases), Config{
		VCs:             1 + draw(3),
		BufFlits:        2 + draw(7),
		DeadlockTimeout: timeouts[draw(len(timeouts))],
		MaxCycles:       5_000_000,
	}
}

// TestEngineEquivalenceRandomized fuzzes the engines against each other
// with random phased workloads — random flows, sizes, compute gaps, and
// simulator knobs — on mesh and torus. Seeded, so failures reproduce. The
// first eight trials are the original corpus (sizes to 2 KB, unit links) and
// all that -short runs; the rest add per-link delays of 1-4 cycles and, one
// trial in four, sizes to 64 KB.
func TestEngineEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const procs = 8
	rows, cols := topology.GridDims(procs)
	mnet, mgrid := topology.Mesh(rows, cols)
	mdor := meshRouter(t, mnet, mgrid)
	tnet, tgrid := topology.Torus(rows, cols)
	trials := 64
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		sizeExps := 8
		if trial >= 8 && trial%4 == 0 {
			sizeExps = 13
		}
		pat, cfg := drawCase(rng.Intn, procs, sizeExps)
		if trial >= 8 {
			salt, depth := rng.Intn(64), 1+rng.Intn(4)
			cfg.LinkDelay = func(a, b topology.SwitchID) int { return 1 + (int(a)*5+int(b)*3+salt)%depth }
		}
		runBoth(t, "rand-mesh", pat, mnet, mdor, cfg)
		runBoth(t, "rand-torus", pat, tnet, tfar{tgrid}, cfg)
	}
}

// FuzzEngineEquivalence is the native-fuzz form of the randomized trials:
// the input bytes choose the topology, the link pipeline depth and, through
// drawCase, the workload and knobs; an exhausted input draws zeros.
func FuzzEngineEquivalence(f *testing.F) {
	// Seeds, in draw order: topology, depth-1, phases-1, then per phase
	// flows-1, src/dst pairs, size exponent-4, compute gap; then VCs-1,
	// BufFlits-2, timeout index.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 10, 0})                                                    // mesh, delay 1-2, one 16 KB worm
	f.Add([]byte{1, 3, 0, 7, 0, 4, 1, 5, 2, 6, 3, 7, 4, 0, 5, 1, 6, 2, 7, 3, 8, 50, 2, 6, 2}) // torus, delay 1-4, a 4 KB shift by 4
	f.Add([]byte{2, 0, 1, 1, 0, 3, 4, 7, 8, 199, 0, 2, 6, 6, 0, 1, 2, 0})                     // ring, two phases, 2 VCs, timeout 64
	f.Add([]byte{3, 0, 0, 3, 0, 7, 1, 7, 2, 7, 3, 7, 10, 0, 2, 6, 2})                         // crossbar, four 16 KB worms to p7
	// TestEngineEquivalencePeriodic's rotations, 4 KB worms.
	f.Add([]byte{3, 0, 0, 1, 0, 7, 1, 7, 8, 0, 1, 6, 0})                   // crossbar, two rotating on 2 VCs (period 4)
	f.Add([]byte{3, 0, 0, 2, 0, 7, 1, 7, 2, 7, 8, 0, 1, 6, 0})             // crossbar, two rotating, one stalled, timeout 64
	f.Add([]byte{0, 3, 0, 2, 0, 7, 1, 7, 2, 7, 8, 0, 2, 6, 2})             // mesh, delay 1-4, three to p7
	f.Add([]byte{2, 0, 0, 4, 0, 7, 1, 7, 2, 6, 3, 6, 4, 6, 8, 0, 2, 6, 2}) // ring, two and three rotating (period 6)
	f.Add([]byte{0, 1, 0, 4, 0, 7, 1, 7, 2, 6, 3, 6, 4, 6, 8, 0, 2, 6, 2}) // mesh, delay 1-2, the same
	// TestEngineEquivalenceWorklists' shapes.
	f.Add([]byte{0, 0, 0, 1, 0, 7, 4, 7, 10, 0, 0, 0, 0})                              // mesh, two 16 KB worms to p7 on 1 VC, timeout 64: a waiting head killed
	f.Add([]byte{0, 1, 1, 2, 0, 0, 3, 3, 0, 5, 4, 50, 1, 5, 0, 6, 6, 2, 100, 1, 2, 2}) // mesh, self-messages in both phases
	f.Add([]byte{3, 0, 1, 0, 0, 2, 10, 0, 0, 1, 2, 0, 0, 2, 6, 2})                     // crossbar, a 16-byte message ejected while p2 receives a 16 KB one
	f.Add([]byte{3, 0, 0, 2, 0, 7, 1, 7, 4, 7, 10, 0, 0, 6, 2})                        // crossbar, three 16 KB worms for p7's one ejection VC, timeout 8192
	f.Add([]byte{3, 0, 0, 3, 4, 1, 2, 1, 7, 1, 6, 1, 4, 0, 0, 3, 0})                   // crossbar, four 256-byte messages for p1's one ejection VC, timeout 64: a victim tie
	const procs = 8
	rows, cols := topology.GridDims(procs)
	mnet, mgrid := topology.Mesh(rows, cols)
	mdor := meshRouter(f, mnet, mgrid)
	tnet, tgrid := topology.Torus(rows, cols)
	rnet, rgrid := topology.Ring(procs)
	xnet := topology.Crossbar(procs)
	xbar := crossbarRouter(f, xnet)
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		topo, depth := draw(4), 1+draw(4)
		pat, cfg := drawCase(draw, procs, 11)
		cfg.MaxCycles = 200_000
		cfg.LinkDelay = func(a, b topology.SwitchID) int { return 1 + (int(a)+int(b))%depth }
		switch topo {
		case 0:
			runBoth(t, "fuzz-mesh", pat, mnet, mdor, cfg)
		case 1:
			runBoth(t, "fuzz-torus", pat, tnet, tfar{tgrid}, cfg)
		case 2:
			runBoth(t, "fuzz-ring", pat, rnet, tfar{rgrid}, cfg)
		case 3:
			runBoth(t, "fuzz-crossbar", pat, xnet, xbar, cfg)
		}
	})
}
