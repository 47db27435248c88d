// Package floorplan implements the paper's 2-D tile-based area model
// (Section 4.1): the chip is a grid of processor tiles à la MIT RAW, each
// with its network interface at a corner; switches occupy tile corners and
// may be shared by up to the four tiles meeting there (the paper's
// variable-orientation tiling); link area is proportional to the number of
// tiles a wire crosses.
//
// Quantitatively (calibrated to the paper's two anchors):
//
//   - The mesh baseline uses the fixed-orientation tiling of Figure 6(a):
//     every switch occupies its own corner and every link crosses exactly
//     one tile, so mesh link area equals the link count; a torus needs the
//     same switch area and twice the link area (Section 4.1).
//   - Generated networks use the variable-orientation tiling of Figure
//     6(b): switches are placed on the corner lattice by a deterministic
//     search — a greedy breadth-first seed, then steepest-descent sweeps of
//     switch relocations and swaps (see Place); a link between switches at
//     lattice (manhattan) distance d crosses max(0, d-1) tiles — zero for
//     physically adjacent switches, "as much as two" for the farther pairs
//     of Figure 6(b).
//
// The same geometry supplies per-link delays for the flit simulator: delay
// equals a link's length in tiles with a minimum of one cycle.
package floorplan

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/topology"
)

// Point is a corner-lattice coordinate. For an R x C tile grid the lattice
// spans (R+1) x (C+1) points.
type Point struct {
	R, C int
}

func manhattan(a, b Point) int {
	dr, dc := a.R-b.R, a.C-b.C
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// linkCost is the tiles crossed by a wire between two switch corners.
func linkCost(a, b Point) int {
	if d := manhattan(a, b); d > 1 {
		return d - 1
	}
	return 0
}

// Plan is a placed floorplan for a network.
type Plan struct {
	// Rows and Cols give the tile grid dimensions.
	Rows, Cols int
	// SwitchPos maps each switch to its corner-lattice point.
	SwitchPos []Point
	// ProcTile maps each processor to its tile (row, col).
	ProcTile []Point
	// SwitchArea is the number of switches (uniform 5-port switch area
	// units).
	SwitchArea int
	// LinkArea is the total tiles crossed by switch-to-switch wires,
	// weighted by pipe width.
	LinkArea int
	// ProcLinkArea is the tiles crossed by processor-to-switch wires
	// (zero when every processor's switch sits on a corner of its tile).
	ProcLinkArea int
}

// TotalArea sums link and processor-link area (switch area is reported
// separately, as in Figure 7).
func (p *Plan) TotalArea() int { return p.LinkArea + p.ProcLinkArea }

// LinkDelay returns the simulator delay of the pipe between two switches:
// its length in tiles, minimum one cycle.
func (p *Plan) LinkDelay(a, b topology.SwitchID) int {
	d := linkCost(p.SwitchPos[a], p.SwitchPos[b])
	if d < 1 {
		return 1
	}
	return d
}

// MeshBaseline returns the fixed-orientation mesh accounting for n
// processors: one switch per tile and one tile crossed per link.
func MeshBaseline(procs int) (switchArea, linkArea int) {
	rows, cols := topology.GridDims(procs)
	mesh, _ := topology.Mesh(rows, cols)
	return mesh.NumSwitches(), mesh.TotalLinks()
}

// TorusBaseline returns the torus accounting: same switch area as the mesh
// and double its link area (Section 4.1: "the same total switch area as
// that in a mesh is needed, but double the total link area is required").
func TorusBaseline(procs int) (switchArea, linkArea int) {
	sw, la := MeshBaseline(procs)
	return sw, 2 * la
}

// Options tunes the placement search.
type Options struct {
	// Seed has no effect: the search is deterministic and a function of the
	// network alone, so every seed yields the same Plan. The field remains
	// only because the end-to-end benchmark still sets it; leave it zero.
	Seed int64
	// Obs receives telemetry: a span per Place call plus the floorplan.*
	// counters. Nil disables telemetry at zero cost.
	Obs obs.Observer
}

// maxSweeps bounds the improvement passes.
const maxSweeps = 64

// Place computes a variable-orientation floorplan for the network: switches
// on corner-lattice points, processors on tiles. A greedy breadth-first
// seed is improved by steepest-descent sweeps of switch relocations and
// swaps, then processor-tile swaps, until a sweep changes nothing. The cost
// puts processor adjacency (weight 1024 per tile a processor wire crosses)
// ahead of link area, which holds while LinkArea stays below 1024 — true of
// every network tested up to 256 processors. The result is a function of the
// network alone.
func Place(net *topology.Network, opt Options) (*Plan, error) {
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: %v", err)
	}
	sp := obs.Span(opt.Obs, "floorplan.place")
	defer sp.End()
	rows, cols := topology.GridDims(net.Procs)
	corners := (rows + 1) * (cols + 1)
	if net.NumSwitches() > corners {
		return nil, fmt.Errorf("floorplan: %d switches exceed %d corner sites", net.NumSwitches(), corners)
	}
	pl := newPlacement(net, rows, cols)
	sweeps := pl.optimize(maxSweeps)
	plan := pl.plan()
	obs.Count(opt.Obs, "floorplan.place_calls", 1)
	obs.Count(opt.Obs, "floorplan.sweeps", int64(sweeps))
	obs.Count(opt.Obs, "floorplan.probes", int64(pl.probes))
	obs.Count(opt.Obs, "floorplan.exact_fallbacks", int64(pl.exactFallbacks))
	obs.Count(opt.Obs, "floorplan.link_area", int64(plan.LinkArea))
	obs.Count(opt.Obs, "floorplan.switch_area", int64(plan.SwitchArea))
	return plan, nil
}

// procWeight is the cost of one tile crossed by a processor wire, in units of
// one tile crossed by a switch-to-switch link.
const procWeight = 1024

// incidentPipe is one pipe seen from a switch: the far end and the width.
type incidentPipe struct {
	nb    topology.SwitchID
	width int
}

// matching assigns processors to tiles that touch their switch's corner, by
// augmenting-path searches.
type matching struct {
	tileProc []int   // tile index -> processor + 1, 0 when free
	procTile []Point // processor -> tile, R < 0 when unmatched

	// mark[t] lets a search skip tile t: it equals stamp when the search in
	// progress has visited t, and dead when a failed search has. A failed
	// search visits every tile an alternating path reaches from its start
	// and finds each held, so no later path can end in, pass through or
	// alter that region: until the switches move (newSeries), searches skip
	// it and find exactly the paths they would have found by crossing it.
	mark        []int
	stamp, dead int
	trail       []int // tiles the search in progress has visited
}

func newMatching(procs, tiles int) matching {
	return matching{
		tileProc: make([]int, tiles),
		procTile: make([]Point, procs),
		mark:     make([]int, tiles),
		trail:    make([]int, 0, tiles),
	}
}

// reset empties the matching.
func (m *matching) reset() {
	clear(m.tileProc)
	for p := range m.procTile {
		m.procTile[p] = Point{-1, -1}
	}
	m.newSeries()
}

// newSeries forgets the dead regions: the switch corners have changed.
func (m *matching) newSeries() {
	m.stamp++
	m.dead = m.stamp
}

// placement is the search state. Occupancy is held in flat arrays indexed by
// corner number r*(cols+1)+c and tile number r*cols+c.
type placement struct {
	net        *topology.Network
	rows, cols int
	pipes      [][]incidentPipe // per switch, ascending by neighbour
	swPos      []Point          // per switch
	cornerUsed []bool           // per corner
	procTile   []Point          // per processor: the committed assignment
	linkArea   int              // of swPos, maintained by deltas

	// exact is scratch for rematch, the order-sensitive assignment whose
	// cost is the one the search compares.
	exact matching
	free  []Point // settle's scratch: the tiles no processor holds
	// shadow is a maximum matching for the switch corners in shadowPos,
	// brought up to swPos by rehome; unmatched lists the processors it
	// leaves without a tile.
	shadow    matching
	shadowPos []Point
	unmatched []int

	probes, exactFallbacks int
}

func newPlacement(net *topology.Network, rows, cols int) *placement {
	n := net.NumSwitches()
	pl := &placement{
		net:        net,
		rows:       rows,
		cols:       cols,
		pipes:      incidentPipes(net),
		swPos:      make([]Point, n),
		cornerUsed: make([]bool, (rows+1)*(cols+1)),
		procTile:   make([]Point, net.Procs),
		exact:      newMatching(net.Procs, rows*cols),
		free:       make([]Point, 0, rows*cols),
		shadow:     newMatching(net.Procs, rows*cols),
		shadowPos:  make([]Point, n),
		unmatched:  make([]int, net.Procs),
	}
	// Initial switch placement: greedy BFS from the highest-degree
	// switch, each next switch at the free corner minimizing cost to its
	// already-placed neighbors.
	placed := make([]bool, n)
	for _, sw := range pl.bfsOrder() {
		best := Point{-1, -1}
		bestCost := 1 << 30
		for r := 0; r <= rows; r++ {
			for c := 0; c <= cols; c++ {
				p := Point{r, c}
				if pl.cornerUsed[pl.corner(p)] {
					continue
				}
				cost := 0
				for _, e := range pl.pipes[sw] {
					if placed[e.nb] {
						cost += e.width * linkCost(p, pl.swPos[e.nb])
					}
				}
				if cost < bestCost {
					bestCost = cost
					best = p
				}
			}
		}
		pl.swPos[sw] = best
		pl.cornerUsed[pl.corner(best)] = true
		placed[sw] = true
	}
	for _, pipe := range net.Pipes {
		pl.linkArea += pipe.Width * linkCost(pl.swPos[pipe.A], pl.swPos[pipe.B])
	}
	// Initial processor placement: the nearest free tile, in processor order.
	pl.exact.reset()
	pl.settle(&pl.exact)
	copy(pl.procTile, pl.exact.procTile)
	// The shadow matching starts empty; the first rehome fills it.
	pl.shadow.reset()
	for sw := range pl.shadowPos {
		pl.shadowPos[sw] = Point{-1, -1}
	}
	for p := range pl.unmatched {
		pl.unmatched[p] = p
	}
	return pl
}

// incidentPipes lists every switch's pipes, ascending by neighbour (the
// order topology.Neighbors reports, which the BFS seed depends on).
func incidentPipes(net *topology.Network) [][]incidentPipe {
	out := make([][]incidentPipe, net.NumSwitches())
	flat := make([]incidentPipe, 0, 2*len(net.Pipes))
	for sw := range out {
		start := len(flat)
		for _, p := range net.Pipes {
			if p.A == topology.SwitchID(sw) || p.B == topology.SwitchID(sw) {
				flat = append(flat, incidentPipe{p.Other(topology.SwitchID(sw)), p.Width})
			}
		}
		out[sw] = flat[start:len(flat):len(flat)]
		slices.SortFunc(out[sw], func(a, b incidentPipe) int { return int(a.nb - b.nb) })
	}
	return out
}

func (pl *placement) corner(p Point) int { return p.R*(pl.cols+1) + p.C }

func (pl *placement) bfsOrder() []topology.SwitchID {
	n := pl.net.NumSwitches()
	start := topology.SwitchID(0)
	bestDeg := -1
	for sw := 0; sw < n; sw++ {
		d := len(pl.net.Switches[sw].Procs)
		for _, e := range pl.pipes[sw] {
			d += e.width
		}
		if d > bestDeg {
			bestDeg = d
			start = topology.SwitchID(sw)
		}
	}
	visited := make([]bool, n)
	order := make([]topology.SwitchID, 1, n)
	order[0] = start
	visited[start] = true
	for i := 0; i < len(order); i++ {
		for _, e := range pl.pipes[order[i]] {
			if !visited[e.nb] {
				visited[e.nb] = true
				order = append(order, e.nb)
			}
		}
	}
	for sw := 0; sw < n; sw++ {
		if !visited[sw] {
			order = append(order, topology.SwitchID(sw))
		}
	}
	return order
}

// procCost is the tiles crossed by the wire from a tile's NI to the
// switch's corner: zero when the switch sits on one of the tile's corners.
func procCost(tile, sw Point) int {
	return axisGap(tile.R, sw.R) + axisGap(tile.C, sw.C)
}

// axisGap is the distance along one axis from corner coordinate c to the
// nearer of a tile's two corner coordinates t and t+1.
func axisGap(t, c int) int {
	switch {
	case c < t:
		return t - c
	case c > t+1:
		return c - t - 1
	}
	return 0
}

// incident is the link area of the pipes at sw.
func (pl *placement) incident(sw int) int {
	total := 0
	for _, e := range pl.pipes[sw] {
		total += e.width * linkCost(pl.swPos[sw], pl.swPos[e.nb])
	}
	return total
}

func (pl *placement) procArea() int {
	total := 0
	for p, tile := range pl.procTile {
		total += procCost(tile, pl.swPos[pl.net.Home[p]])
	}
	return total
}

// search looks for an augmenting path from the unmatched processor p and
// applies it if there is one.
func (pl *placement) search(m *matching, p int) bool {
	m.stamp++
	m.trail = m.trail[:0]
	if pl.augment(m, p) {
		return true
	}
	for _, t := range m.trail {
		m.mark[t] = m.dead
	}
	return false
}

// augment is the depth-first step of search: it tries the tiles touching
// p's switch's corner in the order (r-1,c-1), (r-1,c), (r,c-1), (r,c),
// evicting a tile's holder when the holder can move on.
func (pl *placement) augment(m *matching, p int) bool {
	pos := pl.swPos[pl.net.Home[p]]
	for r := max(pos.R-1, 0); r <= min(pos.R, pl.rows-1); r++ {
		for c := max(pos.C-1, 0); c <= min(pos.C, pl.cols-1); c++ {
			t := r*pl.cols + c
			if mark := m.mark[t]; mark == m.stamp || mark == m.dead {
				continue
			}
			m.mark[t] = m.stamp
			m.trail = append(m.trail, t)
			if holder := m.tileProc[t]; holder == 0 || pl.augment(m, holder-1) {
				m.tileProc[t] = p + 1
				m.procTile[p] = Point{r, c}
				return true
			}
		}
	}
	return false
}

// settle gives every processor the matching left out the free tile nearest
// its switch's corner — in processor order, the first tile in row-major order
// among equals — and returns the tiles those wires cross. There is a tile for
// each: the grid has exactly one per processor.
func (pl *placement) settle(m *matching) int {
	free := pl.free[:0]
	for r := 0; r < pl.rows; r++ {
		for c := 0; c < pl.cols; c++ {
			if m.tileProc[r*pl.cols+c] == 0 {
				free = append(free, Point{r, c})
			}
		}
	}
	pl.free = free
	area := 0
	for p, tile := range m.procTile {
		if tile.R >= 0 {
			continue
		}
		pos := pl.swPos[pl.net.Home[p]]
		best, bestCost := 0, 1<<30
		for i, tile := range free {
			if cost := procCost(tile, pos); cost < bestCost {
				best, bestCost = i, cost
			}
		}
		tile = free[best]
		free = slices.Delete(free, best, best+1)
		m.tileProc[tile.R*pl.cols+tile.C] = p + 1
		m.procTile[p] = tile
		area += bestCost
	}
	return area
}

// rematch assigns every processor a tile from scratch, into pl.exact, and
// returns the processor-link area of the assignment. Adjacency (every
// processor on a tile touching its switch's corner) is a bipartite matching
// problem, solved exactly with augmenting paths in processor order;
// processors the matching cannot place adjacently then take the nearest free
// tile, again in processor order. The area of those fallbacks depends on
// which processors the search order leaves out, so this routine — not the
// size of the matching — defines the cost of an imperfect placement.
func (pl *placement) rematch() int {
	m := &pl.exact
	m.reset()
	for p := range m.procTile {
		pl.search(m, p)
	}
	return pl.settle(m)
}

// rehome brings the shadow matching up to swPos and returns how many
// processors a maximum matching leaves without an adjacent tile. Processors
// of a switch that moved give up their tiles; then every unmatched processor
// searches once for an augmenting path. One search each is enough: a
// processor with no augmenting path has none after other paths are applied,
// so the result is maximum whatever matching the searches started from.
func (pl *placement) rehome() int {
	m := &pl.shadow
	for sw, pos := range pl.swPos {
		if pl.shadowPos[sw] == pos {
			continue
		}
		pl.shadowPos[sw] = pos
		for _, p := range pl.net.Switches[sw].Procs {
			if tile := m.procTile[p]; tile.R >= 0 {
				m.tileProc[tile.R*pl.cols+tile.C] = 0
				m.procTile[p] = Point{-1, -1}
				pl.unmatched = append(pl.unmatched, p)
			}
		}
	}
	m.newSeries()
	kept := pl.unmatched[:0]
	for _, p := range pl.unmatched {
		if !pl.search(m, p) {
			kept = append(kept, p)
		}
	}
	pl.unmatched = kept
	return len(kept)
}

// score returns the cost of the current switch positions — procWeight times
// the processor-link area of rematch, plus the link area la — when it is
// below limit, and limit otherwise, without running rematch when it can be
// avoided.
//
// After rematch an unmatched processor never has a free adjacent tile: its
// search tried every tile touching its corner and found each one held, and
// later searches never free a tile. Its fallback therefore crosses at least
// one tile, so the processor-link area is zero exactly when the maximum
// matching is perfect, and otherwise at least the number of processors a
// maximum matching leaves out. The size of a maximum matching does not depend
// on the order the searches ran in, so the shadow matching, which is
// maintained incrementally rather than rebuilt, decides both cases; only a
// candidate that is imperfect and still might beat limit needs rematch.
func (pl *placement) score(la, limit int) int {
	if la >= limit {
		return limit
	}
	deficit := pl.rehome()
	if deficit == 0 {
		return la
	}
	if procWeight*deficit+la >= limit {
		return limit
	}
	pl.exactFallbacks++
	return min(limit, procWeight*pl.rematch()+la)
}

// relocate moves switch sw to the free corner that lowers the cost most, the
// first in row-major order among equals, and returns the cost afterwards
// (cur when no corner improves on it).
func (pl *placement) relocate(sw, cur int) int {
	old := pl.swPos[sw]
	rest := pl.linkArea - pl.incident(sw)
	best, bestCost, bestLA := old, cur, pl.linkArea
	for r := 0; r <= pl.rows; r++ {
		for c := 0; c <= pl.cols; c++ {
			p := Point{r, c}
			if pl.cornerUsed[pl.corner(p)] {
				continue
			}
			pl.probes++
			pl.swPos[sw] = p
			la := rest + pl.incident(sw)
			if cost := pl.score(la, bestCost); cost < bestCost {
				best, bestCost, bestLA = p, cost, la
			}
		}
	}
	pl.swPos[sw] = best
	pl.cornerUsed[pl.corner(old)] = false
	pl.cornerUsed[pl.corner(best)] = true
	pl.linkArea = bestLA
	return bestCost
}

// swap exchanges the corners of switches a and b when that lowers the cost,
// and returns the cost afterwards.
func (pl *placement) swap(a, b, cur int) int {
	pl.probes++
	before := pl.incident(a) + pl.incident(b)
	pl.swPos[a], pl.swPos[b] = pl.swPos[b], pl.swPos[a]
	// The pipe between a and b, if any, is counted twice on both sides and
	// keeps its length.
	la := pl.linkArea - before + pl.incident(a) + pl.incident(b)
	cost := pl.score(la, cur)
	if cost < cur {
		pl.linkArea = la
	} else {
		pl.swPos[a], pl.swPos[b] = pl.swPos[b], pl.swPos[a]
	}
	return cost
}

// optimize runs improvement sweeps and returns how many it ran: switch
// relocations and swaps — each scored with processors re-placed, since a
// switch move is only as good as the tiles its processors can then claim —
// followed by processor-level refinement. Strict improvements are committed;
// the first sweep that commits nothing is the last.
func (pl *placement) optimize(sweeps int) int {
	n := pl.net.NumSwitches()
	// cur is the cost of swPos with processors re-placed. It is a function
	// of swPos alone, so it carries from one accepted move to the next.
	cur := procWeight*pl.rematch() + pl.linkArea
	for sweep := 0; sweep < sweeps; sweep++ {
		improved := false
		for sw := 0; sw < n; sw++ {
			if cost := pl.relocate(sw, cur); cost < cur {
				cur, improved = cost, true
			}
			for other := sw + 1; other < n; other++ {
				if cost := pl.swap(sw, other, cur); cost < cur {
					cur, improved = cost, true
				}
			}
		}
		// Commit the reassignment implied by the final switch layout if
		// it helps, then refine processors individually.
		if pl.rematch() < pl.procArea() {
			copy(pl.procTile, pl.exact.procTile)
			improved = true
		}
		// Every tile is taken (the grid has one per processor), so only
		// exchanges can help, and an exchange changes two terms of the cost.
		for p := range pl.procTile {
			hp := pl.swPos[pl.net.Home[p]]
			for q := p + 1; q < len(pl.procTile); q++ {
				hq := pl.swPos[pl.net.Home[q]]
				a, b := pl.procTile[p], pl.procTile[q]
				if procCost(b, hp)+procCost(a, hq) < procCost(a, hp)+procCost(b, hq) {
					pl.procTile[p], pl.procTile[q] = b, a
					improved = true
				}
			}
		}
		if !improved {
			return sweep + 1
		}
	}
	return sweeps
}

func (pl *placement) plan() *Plan {
	return &Plan{
		Rows:         pl.rows,
		Cols:         pl.cols,
		SwitchPos:    pl.swPos,
		ProcTile:     pl.procTile,
		SwitchArea:   pl.net.NumSwitches(),
		LinkArea:     pl.linkArea,
		ProcLinkArea: pl.procArea(),
	}
}
