// Package topology models switched network topologies as the paper's
// Definition 1 system graph: switches, processor attachments, and pipes
// (bundles of full-duplex links between a pair of switches). It provides the
// regular baselines the evaluation compares against — mesh, torus, and the
// fully connected non-blocking crossbar — as well as the generic structure
// the synthesizer emits for generated irregular networks.
package topology

import (
	"fmt"
	"math"
	"sort"
)

// SwitchID identifies a switch within a network.
type SwitchID int

// Switch is a network switch with full internal crossbar functionality
// (Section 2.3 models contention among links, not switches).
type Switch struct {
	ID SwitchID
	// Procs lists the processors attached to this switch, each by one
	// dedicated full-duplex port.
	Procs []int
}

// Pipe is the bundle of full-duplex links connecting two switches
// (Section 3.1). Width is the number of physical links; each link carries
// one message per direction simultaneously. Endpoints are canonical: A < B.
type Pipe struct {
	A, B  SwitchID
	Width int
}

// Other returns the far endpoint relative to s.
func (p Pipe) Other(s SwitchID) SwitchID {
	if p.A == s {
		return p.B
	}
	return p.A
}

// Network is a switched network: the system graph G(N, L) of Definition 1.
type Network struct {
	Name     string
	Procs    int
	Switches []Switch
	// Home maps each processor to the switch it attaches to.
	Home    []SwitchID
	Pipes   []Pipe
	pipeIdx map[[2]SwitchID]int
}

// New creates an empty network for the given processor count. Processors
// exist but are unattached until AttachProc is called.
func New(name string, procs int) *Network {
	return &Network{
		Name:    name,
		Procs:   procs,
		Home:    make([]SwitchID, procs),
		pipeIdx: make(map[[2]SwitchID]int),
	}
}

// AddSwitch appends a new switch and returns its ID.
func (n *Network) AddSwitch() SwitchID {
	id := SwitchID(len(n.Switches))
	n.Switches = append(n.Switches, Switch{ID: id})
	return id
}

// AttachProc connects processor p to switch s, detaching it from any
// previous home.
func (n *Network) AttachProc(p int, s SwitchID) {
	if len(n.Switches) > 0 {
		old := n.Home[p]
		sw := &n.Switches[old]
		for i, q := range sw.Procs {
			if q == p {
				sw.Procs = append(sw.Procs[:i], sw.Procs[i+1:]...)
				break
			}
		}
	}
	n.Home[p] = s
	n.Switches[s].Procs = append(n.Switches[s].Procs, p)
}

func pipeKey(a, b SwitchID) [2]SwitchID {
	if b < a {
		a, b = b, a
	}
	return [2]SwitchID{a, b}
}

// SetPipe creates or resizes the pipe between a and b. It panics on a self
// pipe and on a width below 1: a pipe is never removed.
func (n *Network) SetPipe(a, b SwitchID, width int) {
	if a == b {
		panic("topology: self pipe")
	}
	if width <= 0 {
		panic(fmt.Sprintf("topology: pipe (%d,%d) of width %d", a, b, width))
	}
	key := pipeKey(a, b)
	if idx, ok := n.pipeIdx[key]; ok {
		n.Pipes[idx].Width = width
		return
	}
	n.pipeIdx[key] = len(n.Pipes)
	n.Pipes = append(n.Pipes, Pipe{A: key[0], B: key[1], Width: width})
}

// PipeBetween returns the pipe connecting a and b, if any.
func (n *Network) PipeBetween(a, b SwitchID) (Pipe, bool) {
	idx, ok := n.pipeIdx[pipeKey(a, b)]
	if !ok {
		return Pipe{}, false
	}
	return n.Pipes[idx], true
}

// Neighbors returns the switches directly connected to s by a pipe, sorted.
func (n *Network) Neighbors(s SwitchID) []SwitchID {
	var out []SwitchID
	for _, p := range n.Pipes {
		if p.A == s {
			out = append(out, p.B)
		} else if p.B == s {
			out = append(out, p.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the port count of switch s: one port per attached processor
// plus one per link of every incident pipe. This is the "node degree" design
// constraint of Section 3.4.
func (n *Network) Degree(s SwitchID) int {
	d := len(n.Switches[s].Procs)
	for _, p := range n.Pipes {
		if p.A == s || p.B == s {
			d += p.Width
		}
	}
	return d
}

// MaxDegree returns the largest switch degree in the network.
func (n *Network) MaxDegree() int {
	max := 0
	for _, sw := range n.Switches {
		if d := n.Degree(sw.ID); d > max {
			max = d
		}
	}
	return max
}

// TotalLinks sums pipe widths (switch-to-switch full-duplex links,
// excluding processor attachment ports).
func (n *Network) TotalLinks() int {
	total := 0
	for _, p := range n.Pipes {
		total += p.Width
	}
	return total
}

// NumSwitches returns the switch count.
func (n *Network) NumSwitches() int { return len(n.Switches) }

// Validate checks structural invariants: every processor attached to an
// existing switch and listed exactly once, pipes canonical with positive
// width, and the switch graph connected (Definition 1 requires a strongly
// connected system; with full-duplex pipes this reduces to undirected
// connectivity).
func (n *Network) Validate() error {
	if n.Procs <= 0 {
		return fmt.Errorf("topology %q: no processors", n.Name)
	}
	if len(n.Switches) == 0 {
		return fmt.Errorf("topology %q: no switches", n.Name)
	}
	if len(n.Home) != n.Procs {
		return fmt.Errorf("topology %q: Home has %d entries for %d procs", n.Name, len(n.Home), n.Procs)
	}
	seen := make(map[int]SwitchID)
	for _, sw := range n.Switches {
		for _, p := range sw.Procs {
			if p < 0 || p >= n.Procs {
				return fmt.Errorf("topology %q: switch %d attaches out-of-range proc %d", n.Name, sw.ID, p)
			}
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("topology %q: proc %d attached to switches %d and %d", n.Name, p, prev, sw.ID)
			}
			seen[p] = sw.ID
			if n.Home[p] != sw.ID {
				return fmt.Errorf("topology %q: proc %d home %d but attached to %d", n.Name, p, n.Home[p], sw.ID)
			}
		}
	}
	for p := 0; p < n.Procs; p++ {
		if _, ok := seen[p]; !ok {
			return fmt.Errorf("topology %q: proc %d unattached", n.Name, p)
		}
	}
	for _, p := range n.Pipes {
		if p.A >= p.B {
			return fmt.Errorf("topology %q: pipe (%d,%d) not canonical", n.Name, p.A, p.B)
		}
		if p.Width <= 0 {
			return fmt.Errorf("topology %q: pipe (%d,%d) width %d", n.Name, p.A, p.B, p.Width)
		}
		if int(p.B) >= len(n.Switches) {
			return fmt.Errorf("topology %q: pipe (%d,%d) references missing switch", n.Name, p.A, p.B)
		}
	}
	if !n.connected() {
		return fmt.Errorf("topology %q: switch graph disconnected", n.Name)
	}
	return nil
}

// connected reports whether all switches holding processors are mutually
// reachable (switches with no processors and no pipes are tolerated only if
// they carry nothing).
func (n *Network) connected() bool {
	if len(n.Switches) == 0 {
		return false
	}
	// Start BFS from the home of processor 0.
	start := n.Home[0]
	visited := make([]bool, len(n.Switches))
	queue := []SwitchID{start}
	visited[start] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, nb := range n.Neighbors(s) {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for _, sw := range n.Switches {
		if len(sw.Procs) > 0 && !visited[sw.ID] {
			return false
		}
	}
	return true
}

// Graft copies src's switches and pipes into n, offsetting switch IDs by
// n's current switch count, and returns that offset. Processor attachments
// are NOT copied — src and n generally index different processor spaces —
// so the caller attaches processors afterwards. This is the composition
// primitive for hierarchical designs: per-chiplet networks and the
// inter-chiplet network graft into one flat system graph.
func (n *Network) Graft(src *Network) SwitchID {
	off := SwitchID(len(n.Switches))
	for range src.Switches {
		n.AddSwitch()
	}
	for _, p := range src.Pipes {
		n.SetPipe(p.A+off, p.B+off, p.Width)
	}
	return off
}

// GridDims factors n into rows x cols with rows <= cols, as close to square
// as possible — the grid shape used for mesh and torus baselines.
func GridDims(n int) (rows, cols int) {
	rows = int(math.Sqrt(float64(n)))
	for rows > 1 && n%rows != 0 {
		rows--
	}
	return rows, n / rows
}

// Grid describes the coordinates of a mesh or torus built by this package;
// routing and floorplanning use it to recover switch positions.
type Grid struct {
	Rows, Cols int
	Wrap       bool
}

// At returns the switch at grid position (r, c).
func (g Grid) At(r, c int) SwitchID { return SwitchID(r*g.Cols + c) }

// Coord returns the grid position of switch s.
func (g Grid) Coord(s SwitchID) (r, c int) { return int(s) / g.Cols, int(s) % g.Cols }

// Mesh builds an R x C mesh: one switch per processor, unit-width pipes to
// the east and south neighbors.
func Mesh(rows, cols int) (*Network, Grid) {
	n := New(fmt.Sprintf("mesh.%dx%d", rows, cols), rows*cols)
	g := Grid{Rows: rows, Cols: cols}
	for p := 0; p < rows*cols; p++ {
		s := n.AddSwitch()
		n.AttachProc(p, s)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				n.SetPipe(g.At(r, c), g.At(r, c+1), 1)
			}
			if r+1 < rows {
				n.SetPipe(g.At(r, c), g.At(r+1, c), 1)
			}
		}
	}
	return n, g
}

// Torus builds an R x C torus: a mesh plus wraparound pipes. Rings of length
// 2 would duplicate the mesh pipe; the wrap is skipped in that degenerate
// case (matching physical k-ary n-cubes where k=2 rings collapse).
func Torus(rows, cols int) (*Network, Grid) {
	n, g := Mesh(rows, cols)
	n.Name = fmt.Sprintf("torus.%dx%d", rows, cols)
	g.Wrap = true
	if cols > 2 {
		for r := 0; r < rows; r++ {
			n.SetPipe(g.At(r, 0), g.At(r, cols-1), 1)
		}
	}
	if rows > 2 {
		for c := 0; c < cols; c++ {
			n.SetPipe(g.At(0, c), g.At(rows-1, c), 1)
		}
	}
	return n, g
}

// Ring builds the N-switch bidirectional ring — the topology collective
// workloads are conventionally run on — as a 1×N torus: one switch per
// processor, unit-width pipes around the cycle (degenerating to a line for
// N ≤ 2, where the wrap pipe would duplicate the mesh pipe).
func Ring(n int) (*Network, Grid) {
	net, g := Torus(1, n)
	net.Name = fmt.Sprintf("ring.%d", n)
	return net, g
}

// Crossbar builds the ideal non-blocking reference: a single megaswitch
// connecting all processors (the starting point of the synthesis and the
// normalization baseline of Figure 8).
func Crossbar(procs int) *Network {
	n := New(fmt.Sprintf("crossbar.%d", procs), procs)
	s := n.AddSwitch()
	for p := 0; p < procs; p++ {
		n.AttachProc(p, s)
	}
	return n
}
