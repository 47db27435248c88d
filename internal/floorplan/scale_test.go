package floorplan

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/topology"
)

// clusteredNetwork builds, without synthesis, the shape synthesis emits at
// scale: leaf switches holding lo..hi processors each, grouped five to a
// processor-less hub, hubs joined in a ring with a few chords, and a chain
// through each group's leaves.
func clusteredNetwork(seed int64, procs, lo, hi int) *topology.Network {
	rng := rand.New(rand.NewSource(seed))
	net := topology.New(fmt.Sprintf("clustered.%d", procs), procs)
	var leaves []topology.SwitchID
	for p := 0; p < procs; {
		leaf := net.AddSwitch()
		leaves = append(leaves, leaf)
		for k := lo + rng.Intn(hi-lo+1); k > 0 && p < procs; k-- {
			net.AttachProc(p, leaf)
			p++
		}
	}
	var hubs []topology.SwitchID
	for i, leaf := range leaves {
		if i%5 == 0 {
			hubs = append(hubs, net.AddSwitch())
		} else {
			net.SetPipe(leaves[i-1], leaf, 1)
		}
		net.SetPipe(hubs[len(hubs)-1], leaf, 1+rng.Intn(2))
	}
	for i, hub := range hubs[1:] {
		net.SetPipe(hubs[i], hub, 1+rng.Intn(3))
	}
	net.SetPipe(hubs[0], hubs[len(hubs)-1], 1)
	for chords := len(hubs) / 4; chords > 0; chords-- {
		if a, b := hubs[rng.Intn(len(hubs))], hubs[rng.Intn(len(hubs))]; a != b {
			net.SetPipe(a, b, 1)
		}
	}
	return net
}

// checkPlan requires distinct in-range corners and tiles, and areas equal to
// a recomputation from the positions alone.
func checkPlan(t *testing.T, net *topology.Network, plan *Plan) {
	t.Helper()
	corners := map[Point]bool{}
	for sw, p := range plan.SwitchPos {
		if p.R < 0 || p.R > plan.Rows || p.C < 0 || p.C > plan.Cols {
			t.Fatalf("switch %d at %v outside lattice", sw, p)
		}
		if corners[p] {
			t.Fatalf("corner %v reused", p)
		}
		corners[p] = true
	}
	tiles := map[Point]bool{}
	procArea := 0
	for proc, tp := range plan.ProcTile {
		if tp.R < 0 || tp.R >= plan.Rows || tp.C < 0 || tp.C >= plan.Cols {
			t.Fatalf("proc %d at %v outside grid", proc, tp)
		}
		if tiles[tp] {
			t.Fatalf("tile %v reused", tp)
		}
		tiles[tp] = true
		procArea += refProcCost(tp, plan.SwitchPos[net.Home[proc]])
	}
	linkArea := 0
	for _, pipe := range net.Pipes {
		linkArea += pipe.Width * linkCost(plan.SwitchPos[pipe.A], plan.SwitchPos[pipe.B])
	}
	if plan.SwitchArea != net.NumSwitches() || plan.LinkArea != linkArea || plan.ProcLinkArea != procArea {
		t.Fatalf("plan reports switch/link/proc area %d/%d/%d, positions give %d/%d/%d",
			plan.SwitchArea, plan.LinkArea, plan.ProcLinkArea, net.NumSwitches(), linkArea, procArea)
	}
}

// TestPlaceScale places networks far larger than the oracle can check. The
// wall bounds are generous because the test also runs under -race, which
// slows this code about twentyfold (clustered.256: 2 s plain, 35 s with the
// detector on a two-core box); the tight numbers live in make
// bench-floorplan.
func TestPlaceScale(t *testing.T) {
	mesh, _ := topology.Mesh(8, 8)
	for _, tc := range []struct {
		net   *topology.Network
		bound time.Duration
	}{
		{clusteredNetwork(64, 64, 1, 2), 2 * time.Second},
		{mesh, 2 * time.Second}, // a switch on every tile: 64 of 81 corners taken
		{clusteredNetwork(256, 256, 2, 4), 90 * time.Second},
	} {
		if err := tc.net.Validate(); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		plan, err := Place(tc.net, Options{})
		took := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", tc.net.Name, err)
		}
		t.Logf("%s: %d switches placed in %v, link area %d, processor-link area %d",
			tc.net.Name, tc.net.NumSwitches(), took, plan.LinkArea, plan.ProcLinkArea)
		checkPlan(t, tc.net, plan)
		if took > tc.bound {
			t.Errorf("%s: placement took %v, bound %v", tc.net.Name, took, tc.bound)
		}
	}
}
