package floorplan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/topology"
)

// This file is the placement search as it stood before the array-backed
// delta engine replaced it, kept verbatim as the lockstep oracle of
// TestPlaceMatchesReference: map-keyed occupancy, and every probe scored by
// costReassigned's snapshot → from-scratch matching → full cost → restore.
// Two things differ from the retired code: the restart loop is gone (its
// seeded rng was never read, so every restart computed this same placement),
// and optimize reports how many sweeps it ran. Nothing selects it at run
// time; it exists only in the test binary.

// refPlace is the retired Place at the default sweep bound: one search, with
// the number of sweeps it ran.
func refPlace(net *topology.Network) (*Plan, int, error) {
	if err := net.Validate(); err != nil {
		return nil, 0, fmt.Errorf("floorplan: %v", err)
	}
	rows, cols := topology.GridDims(net.Procs)
	if corners := (rows + 1) * (cols + 1); net.NumSwitches() > corners {
		return nil, 0, fmt.Errorf("floorplan: %d switches exceed %d corner sites", net.NumSwitches(), corners)
	}
	pl := newRefPlacement(net, rows, cols)
	ran := pl.optimize(maxSweeps)
	return pl.plan(), ran, nil
}

// checkAgainstReference places the network with Place and with the oracle
// and requires the same Plan, field for field, reached in the same number of
// sweeps.
func checkAgainstReference(t *testing.T, name string, net *topology.Network) *Plan {
	t.Helper()
	col := obs.NewCollector()
	got, err := Place(net, Options{Obs: col})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantSweeps, err := refPlace(net)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: plan differs from the reference\n got %+v\nwant %+v", name, got, want)
	}
	if sweeps := col.Counters()["floorplan.sweeps"]; sweeps != int64(wantSweeps) {
		t.Errorf("%s: %d sweeps, reference ran %d", name, sweeps, wantSweeps)
	}
	return got
}

// TestPlaceMatchesReference is the lockstep pin of the delta engine: the
// fifteen paper_cells networks (BT/9 and SP/9 keep ProcLinkArea 1, so they
// exercise the exact fallback), CG/32, seeded random networks built to
// include what synthesis rarely emits, and ring-allreduce/64. The oracle
// dominates the run time, so the four groups run side by side.
func TestPlaceMatchesReference(t *testing.T) {
	t.Run("paper_cells", func(t *testing.T) {
		t.Parallel()
		paper := synth.Options{Seed: 1} // harness.Paper()'s synthesis options
		for _, name := range nas.Names() {
			small, large := nas.PaperProcs(name)
			for _, procs := range []int{small, large} {
				pat, err := nas.Generate(name, procs, nas.Config{})
				key := fmt.Sprintf("%s/%d", name, procs)
				plan := checkAgainstReference(t, key, synthesized(t, pat, err, paper))
				if (key == "BT/9" || key == "SP/9") && plan.ProcLinkArea == 0 {
					t.Errorf("%s: ProcLinkArea 0; the corpus relies on it for the exact fallback", key)
				}
			}
		}
		// The chiplet cell floorplans the CG/16 design placed above.
		for _, name := range collective.Names() {
			pat, err := collective.Generate(name, 16, collective.Config{})
			checkAgainstReference(t, name+"/16", synthesized(t, pat, err, paper))
		}
	})
	t.Run("CG32", func(t *testing.T) {
		t.Parallel()
		pat, err := nas.Generate("CG", 32, nas.Config{})
		checkAgainstReference(t, "CG/32", synthesized(t, pat, err, synth.Options{Seed: 1, Restarts: 1}))
	})
	t.Run("random", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(19))
		imperfect := 0
		grids := map[[2]int]int{}
		for i := 0; i < 300; i++ {
			// The smaller of two draws: every size from 5 to 20 occurs, the
			// large ones (where the oracle is slow) less often.
			net := randomNetwork(rng, 5+min(rng.Intn(16), rng.Intn(16)))
			if err := net.Validate(); err != nil {
				t.Fatalf("random network %d: %v", i, err)
			}
			plan := checkAgainstReference(t, fmt.Sprintf("random %d (%s)", i, net.Name), net)
			grids[[2]int{plan.Rows, plan.Cols}]++
			if plan.ProcLinkArea > 0 {
				imperfect++
			}
		}
		if imperfect < 30 {
			t.Errorf("only %d of 300 random networks have an imperfect matching", imperfect)
		}
		for _, grid := range [][2]int{{1, 7}, {2, 5}, {3, 3}, {4, 4}} {
			if grids[grid] == 0 {
				t.Errorf("no random network on a %dx%d grid", grid[0], grid[1])
			}
		}
	})
	t.Run("ring64", func(t *testing.T) {
		if testing.Short() {
			t.Skip("the oracle takes about 2 s on ring-allreduce/64")
		}
		t.Parallel()
		pat, err := collective.Generate("ring-allreduce", 64, collective.Config{})
		plan := checkAgainstReference(t, "ring-allreduce/64", synthesized(t, pat, err, synth.Options{Seed: 1, Restarts: 1}))
		if plan.ProcLinkArea == 0 {
			t.Errorf("ring-allreduce/64: ProcLinkArea 0; it is in the corpus as the imperfect case at scale")
		}
	})
}

// randomNetwork builds a valid network on 5–20 processors (so 1×N, 2×5, 3×3
// and 4×4 grids among others) with the shapes that stress the matching: up
// to six processors on one switch, relay switches with none, pipe widths 1–4
// over a random tree plus chords, and sometimes one switch connected to
// nothing.
func randomNetwork(rng *rand.Rand, procs int) *topology.Network {
	rows, cols := topology.GridDims(procs)
	corners := (rows + 1) * (cols + 1)
	minSw := (procs + 5) / 6
	nsw := minSw + rng.Intn(min(procs, corners-1, 12)-minSw+1)
	net := topology.New(fmt.Sprintf("%dx%d,%dsw", rows, cols, nsw), procs)
	for i := 0; i < nsw; i++ {
		net.AddSwitch()
	}
	load := make([]int, nsw)
	crowd := rng.Intn(nsw) // gets every third processor while it has ports
	for p := 0; p < procs; p++ {
		sw := crowd
		for p%3 != 0 || load[sw] == 6 {
			if sw = rng.Intn(nsw); load[sw] < 6 {
				break
			}
		}
		net.AttachProc(p, topology.SwitchID(sw))
		load[sw]++
	}
	for sw := 1; sw < nsw; sw++ {
		net.SetPipe(topology.SwitchID(sw), topology.SwitchID(rng.Intn(sw)), 1+rng.Intn(4))
	}
	for extra := rng.Intn(nsw); extra > 0; extra-- {
		if a, b := rng.Intn(nsw), rng.Intn(nsw); a != b {
			net.SetPipe(topology.SwitchID(a), topology.SwitchID(b), 1+rng.Intn(4))
		}
	}
	if rng.Intn(3) == 0 {
		net.AddSwitch()
	}
	return net
}

// refPlacement is the oracle's mutable search state.
type refPlacement struct {
	net        *topology.Network
	rows, cols int
	swPos      []Point // per switch
	posUsed    map[Point]topology.SwitchID
	procTile   []Point // per proc
	tileUsed   map[Point]int
}

func newRefPlacement(net *topology.Network, rows, cols int) *refPlacement {
	pl := &refPlacement{
		net:      net,
		rows:     rows,
		cols:     cols,
		swPos:    make([]Point, net.NumSwitches()),
		posUsed:  make(map[Point]topology.SwitchID),
		procTile: make([]Point, net.Procs),
		tileUsed: make(map[Point]int),
	}
	// Initial switch placement: greedy BFS from the highest-degree
	// switch, each next switch at the free corner minimizing cost to its
	// already-placed neighbors.
	order := pl.bfsOrder()
	placed := make([]bool, net.NumSwitches())
	for _, sw := range order {
		bestP := Point{-1, -1}
		bestCost := 1 << 30
		for r := 0; r <= rows; r++ {
			for c := 0; c <= cols; c++ {
				p := Point{r, c}
				if _, used := pl.posUsed[p]; used {
					continue
				}
				cost := 0
				for _, nb := range pl.net.Neighbors(sw) {
					if placed[nb] {
						w := 1
						if pipe, ok2 := pl.net.PipeBetween(sw, nb); ok2 {
							w = pipe.Width
						}
						cost += w * linkCost(p, pl.swPos[nb])
					}
				}
				if cost < bestCost {
					bestCost = cost
					bestP = p
				}
			}
		}
		pl.setSwitch(sw, bestP)
		placed[sw] = true
	}
	// Initial processor placement: adjacent free tile when possible.
	for p := 0; p < net.Procs; p++ {
		home := net.Home[p]
		tile := pl.bestTileFor(home)
		pl.setProc(p, tile)
	}
	return pl
}

func (pl *refPlacement) bfsOrder() []topology.SwitchID {
	n := pl.net.NumSwitches()
	start := topology.SwitchID(0)
	bestDeg := -1
	for sw := 0; sw < n; sw++ {
		if d := pl.net.Degree(topology.SwitchID(sw)); d > bestDeg {
			bestDeg = d
			start = topology.SwitchID(sw)
		}
	}
	visited := make([]bool, n)
	order := []topology.SwitchID{start}
	visited[start] = true
	for i := 0; i < len(order); i++ {
		for _, nb := range pl.net.Neighbors(order[i]) {
			if !visited[nb] {
				visited[nb] = true
				order = append(order, nb)
			}
		}
	}
	for sw := 0; sw < n; sw++ {
		if !visited[sw] {
			visited[sw] = true
			order = append(order, topology.SwitchID(sw))
		}
	}
	return order
}

func (pl *refPlacement) setSwitch(sw topology.SwitchID, p Point) {
	old := pl.swPos[sw]
	if pl.posUsed[old] == sw {
		delete(pl.posUsed, old)
	}
	pl.swPos[sw] = p
	pl.posUsed[p] = sw
}

func (pl *refPlacement) setProc(proc int, tile Point) {
	old := pl.procTile[proc]
	if pl.tileUsed[old] == proc+1 {
		delete(pl.tileUsed, old)
	}
	pl.procTile[proc] = tile
	pl.tileUsed[tile] = proc + 1
}

// bestTileFor returns the free tile minimizing distance to the switch's
// corner.
func (pl *refPlacement) bestTileFor(sw topology.SwitchID) Point {
	best := Point{-1, -1}
	bestCost := 1 << 30
	for r := 0; r < pl.rows; r++ {
		for c := 0; c < pl.cols; c++ {
			tile := Point{r, c}
			if pl.tileUsed[tile] != 0 {
				continue
			}
			cost := refProcCost(tile, pl.swPos[sw])
			if cost < bestCost {
				bestCost = cost
				best = tile
			}
		}
	}
	return best
}

// refProcCost is the tiles crossed by the wire from a tile's NI to the
// switch's corner: zero when the switch sits on one of the tile's corners.
func refProcCost(tile, sw Point) int {
	best := 1 << 30
	for _, corner := range []Point{
		{tile.R, tile.C}, {tile.R, tile.C + 1}, {tile.R + 1, tile.C}, {tile.R + 1, tile.C + 1},
	} {
		if d := manhattan(corner, sw); d < best {
			best = d
		}
	}
	return best
}

func (pl *refPlacement) linkArea() int {
	total := 0
	for _, pipe := range pl.net.Pipes {
		total += pipe.Width * linkCost(pl.swPos[pipe.A], pl.swPos[pipe.B])
	}
	return total
}

func (pl *refPlacement) procArea() int {
	total := 0
	for p := 0; p < pl.net.Procs; p++ {
		total += refProcCost(pl.procTile[p], pl.swPos[pl.net.Home[p]])
	}
	return total
}

// cost prioritizes processor adjacency (the paper's tiling always places a
// tile's NI on a corner its switch occupies), then link area.
func (pl *refPlacement) cost() int { return pl.procArea()*1024 + pl.linkArea() }

// adjacentTiles lists the tiles touching a corner point, in grid range.
func (pl *refPlacement) adjacentTiles(pt Point) []Point {
	var out []Point
	for _, t := range []Point{{pt.R - 1, pt.C - 1}, {pt.R - 1, pt.C}, {pt.R, pt.C - 1}, {pt.R, pt.C}} {
		if t.R >= 0 && t.R < pl.rows && t.C >= 0 && t.C < pl.cols {
			out = append(out, t)
		}
	}
	return out
}

// reassignProcs reassigns all processor tiles from scratch. Adjacency
// (every processor on a tile touching its switch's corner) is a bipartite
// matching problem, solved exactly with augmenting paths; processors the
// matching cannot place adjacently fall back to the nearest free tile.
func (pl *refPlacement) reassignProcs() {
	for p := range pl.procTile {
		if pl.tileUsed[pl.procTile[p]] == p+1 {
			delete(pl.tileUsed, pl.procTile[p])
		}
	}
	matchTile := make(map[Point]int) // tile -> proc+1
	matchProc := make([]Point, pl.net.Procs)
	for i := range matchProc {
		matchProc[i] = Point{-1, -1}
	}
	var augment func(p int, visited map[Point]bool) bool
	augment = func(p int, visited map[Point]bool) bool {
		for _, t := range pl.adjacentTiles(pl.swPos[pl.net.Home[p]]) {
			if visited[t] {
				continue
			}
			visited[t] = true
			holder := matchTile[t] - 1
			if holder < 0 || augment(holder, visited) {
				matchTile[t] = p + 1
				matchProc[p] = t
				return true
			}
		}
		return false
	}
	for p := 0; p < pl.net.Procs; p++ {
		augment(p, make(map[Point]bool))
	}
	// Commit matched processors, then place the rest greedily.
	for p := 0; p < pl.net.Procs; p++ {
		if matchProc[p].R >= 0 {
			pl.setProc(p, matchProc[p])
		}
	}
	for p := 0; p < pl.net.Procs; p++ {
		if matchProc[p].R < 0 {
			pl.setProc(p, pl.bestTileFor(pl.net.Home[p]))
		}
	}
}

// snapshotTiles and restoreTiles save and restore the processor assignment.
func (pl *refPlacement) snapshotTiles() []Point { return append([]Point(nil), pl.procTile...) }

func (pl *refPlacement) restoreTiles(tiles []Point) {
	for p := range pl.procTile {
		if pl.tileUsed[pl.procTile[p]] == p+1 {
			delete(pl.tileUsed, pl.procTile[p])
		}
	}
	for p, tile := range tiles {
		pl.setProc(p, tile)
	}
}

// costReassigned evaluates the cost the current switch placement would have
// with processors reassigned from scratch, leaving the placement unchanged.
func (pl *refPlacement) costReassigned() int {
	saved := pl.snapshotTiles()
	pl.reassignProcs()
	c := pl.cost()
	pl.restoreTiles(saved)
	return c
}

// optimize runs improvement sweeps: switch relocations and swaps — each
// evaluated with processors re-placed, since a switch move is only as good
// as the tiles its processors can then claim — followed by processor-level
// refinement. Strict improvements are committed.
func (pl *refPlacement) optimize(sweeps int) int {
	for sweep := 0; sweep < sweeps; sweep++ {
		improved := false
		for sw := 0; sw < pl.net.NumSwitches(); sw++ {
			id := topology.SwitchID(sw)
			cur := pl.costReassigned()
			oldPos := pl.swPos[id]
			bestPos := oldPos
			bestCost := cur
			for r := 0; r <= pl.rows; r++ {
				for c := 0; c <= pl.cols; c++ {
					p := Point{r, c}
					if _, used := pl.posUsed[p]; used {
						continue
					}
					pl.setSwitch(id, p)
					if cost := pl.costReassigned(); cost < bestCost {
						bestCost = cost
						bestPos = p
					}
				}
			}
			pl.setSwitch(id, bestPos)
			if bestPos != oldPos {
				improved = true
			}
			// Swaps with other switches.
			for other := sw + 1; other < pl.net.NumSwitches(); other++ {
				oid := topology.SwitchID(other)
				a, b := pl.swPos[id], pl.swPos[oid]
				cur := pl.costReassigned()
				pl.setSwitch(id, Point{-1, -1})
				pl.setSwitch(oid, a)
				pl.setSwitch(id, b)
				if pl.costReassigned() < cur {
					improved = true
				} else {
					pl.setSwitch(id, Point{-1, -2})
					pl.setSwitch(oid, b)
					pl.setSwitch(id, a)
				}
			}
		}
		// Commit the reassignment implied by the final switch layout if
		// it helps, then refine processors individually.
		if saved := pl.snapshotTiles(); true {
			before := pl.cost()
			pl.reassignProcs()
			if pl.cost() < before {
				improved = true
			} else {
				pl.restoreTiles(saved)
			}
		}
		for p := 0; p < pl.net.Procs; p++ {
			cur := pl.cost()
			oldTile := pl.procTile[p]
			tile := pl.bestTileFor(pl.net.Home[p])
			if tile.R >= 0 {
				pl.setProc(p, tile)
				if pl.cost() < cur {
					improved = true
				} else {
					pl.setProc(p, oldTile)
				}
			}
			for q := p + 1; q < pl.net.Procs; q++ {
				cur := pl.cost()
				a, b := pl.procTile[p], pl.procTile[q]
				pl.setProc(p, Point{-1, -1})
				pl.setProc(q, a)
				pl.setProc(p, b)
				if pl.cost() < cur {
					improved = true
				} else {
					pl.setProc(p, Point{-1, -2})
					pl.setProc(q, b)
					pl.setProc(p, a)
				}
			}
		}
		if !improved {
			return sweep + 1
		}
	}
	return sweeps
}

func (pl *refPlacement) plan() *Plan {
	return &Plan{
		Rows:         pl.rows,
		Cols:         pl.cols,
		SwitchPos:    append([]Point(nil), pl.swPos...),
		ProcTile:     append([]Point(nil), pl.procTile...),
		SwitchArea:   pl.net.NumSwitches(),
		LinkArea:     pl.linkArea(),
		ProcLinkArea: pl.procArea(),
	}
}
