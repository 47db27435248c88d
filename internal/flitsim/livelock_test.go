package flitsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// pairNet is two switches joined by one single-link pipe, with two
// processors on each side and one-hop routes p0→p2 and p1→p3 that both
// need the lone s0→s1 channel.
func pairNet() (*topology.Network, *routing.Table) {
	net := topology.New("pair", 4)
	s0, s1 := net.AddSwitch(), net.AddSwitch()
	net.AttachProc(0, s0)
	net.AttachProc(1, s0)
	net.AttachProc(2, s1)
	net.AttachProc(3, s1)
	net.SetPipe(s0, s1, 1)
	table := routing.NewTable(net)
	table.Routes[model.F(0, 2)] = routing.Route{Switches: []topology.SwitchID{s0, s1}, Links: []int{0}}
	table.Routes[model.F(1, 3)] = routing.Route{Switches: []topology.SwitchID{s0, s1}, Links: []int{0}}
	return net, table
}

// TestTimeoutRetryCountersMatchPacketState drives the regressive-recovery
// path with a starvation workload — two long wormholes contending for a
// single 1-VC channel, so the loser stalls past the timeout and is killed
// with doubling tolerance until the winner drains — and cross-checks the
// Observer's view (flitsim.* counters and flitsim.kill events) against the
// engine's own packet state as surfaced in Result.
func TestTimeoutRetryCountersMatchPacketState(t *testing.T) {
	net, table := pairNet()
	pat := trace.BuildPhased("starve", 4, []trace.PhaseSpec{
		{Flows: []model.Flow{model.F(0, 2), model.F(1, 3)}, Bytes: 16384},
	})
	col := obs.NewCollector()
	res, err := runWith(pat, net, sourceRouted{table}, Config{
		VCs: 1, BufFlits: 4, DeadlockTimeout: 256, MaxCycles: 2_000_000, Obs: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 {
		t.Fatalf("delivered %d/2 messages", res.Messages)
	}
	// One flow holds the channel for ~4096 flit cycles; the other must
	// have been killed more than once (256+512 < 4096) but never both.
	if res.Kills < 2 {
		t.Errorf("Kills = %d, want >= 2 (starved flow killed with doubling timeout)", res.Kills)
	}
	if res.Victims != 1 {
		t.Errorf("Victims = %d, want 1 (only the starved flow is ever stalled)", res.Victims)
	}
	if res.VCStalls == 0 {
		t.Error("VCStalls = 0, want > 0 (loser waits on the single VC)")
	}

	// Counters must mirror Result exactly.
	checks := []struct {
		name string
		want int64
	}{
		{"flitsim.runs", 1},
		{"flitsim.cycles", res.ExecCycles},
		{"flitsim.flits", res.FlitHops},
		{"flitsim.messages", int64(res.Messages)},
		{"flitsim.vc_stalls", res.VCStalls},
		{"flitsim.retries", int64(res.Kills)},
		{"flitsim.victims", int64(res.Victims)},
	}
	for _, c := range checks {
		if got := col.Counter(c.name); got != c.want {
			t.Errorf("counter %s = %d, want %d", c.name, got, c.want)
		}
	}

	// The kill events are the third witness: every kill names the same
	// message with consecutive retry numbers starting at 1.
	var kills []obs.EventRecord
	for _, ev := range col.Events() {
		if ev.Name == "flitsim.kill" {
			kills = append(kills, ev)
		}
	}
	if len(kills) != res.Kills {
		t.Fatalf("recorded %d flitsim.kill events, Result.Kills = %d", len(kills), res.Kills)
	}
	victimMsg := -1
	for i, ev := range kills {
		var cycle, msg, src, dst, retries int
		if _, err := fmt.Sscanf(ev.Detail, "cycle=%d msg=%d src=%d dst=%d retries=%d",
			&cycle, &msg, &src, &dst, &retries); err != nil {
			t.Fatalf("unparseable kill detail %q: %v", ev.Detail, err)
		}
		if victimMsg == -1 {
			victimMsg = msg
		} else if msg != victimMsg {
			t.Errorf("kill %d hit msg %d, want the single victim msg %d", i, msg, victimMsg)
		}
		if retries != i+1 {
			t.Errorf("kill %d has retries=%d, want %d (consecutive)", i, retries, i+1)
		}
		if dst != src+2 {
			t.Errorf("kill %d names flow %d->%d, want a p->p+2 flow", i, src, dst)
		}
	}

	// And the run span exists exactly once.
	rep := col.Report("test")
	if err := rep.Validate(); err != nil {
		t.Errorf("report invalid: %v", err)
	}
	found := false
	for _, sp := range rep.Spans {
		if sp.Name == "flitsim.run" {
			found = true
			if sp.Count != 1 {
				t.Errorf("flitsim.run span count = %d, want 1", sp.Count)
			}
		} else if !strings.HasPrefix(sp.Name, "flitsim.") {
			t.Errorf("unexpected span %q from a flitsim-only run", sp.Name)
		}
	}
	if !found {
		t.Error("missing flitsim.run span")
	}
}
