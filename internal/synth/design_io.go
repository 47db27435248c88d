package synth

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
)

// designJSON is the serialized form of a synthesized design, as LoadDesign
// decodes it: the topology plus the source-routing table with per-hop link
// assignments, so a saved design can be re-simulated exactly as generated.
// Appender.Design writes it.
type designJSON struct {
	Name     string      `json:"name"`
	Procs    int         `json:"procs"`
	Switches [][]int     `json:"switches"`
	Pipes    []pipeJSON  `json:"pipes"`
	Routes   []routeJSON `json:"routes"`
}

type pipeJSON struct {
	A     int `json:"a"`
	B     int `json:"b"`
	Width int `json:"width"`
}

type routeJSON struct {
	Src      int   `json:"src"`
	Dst      int   `json:"dst"`
	Switches []int `json:"switches"`
	Links    []int `json:"links"`
}

// SaveDesign writes the generated network and its routing table as JSON:
// the design v1 document indented by two spaces, then a newline.
func SaveDesign(w io.Writer, net *topology.Network, table *routing.Table) error {
	a := NewAppender(nil, true, 0)
	a.Design(net, table)
	_, err := w.Write(append(a.B, '\n'))
	return err
}

// LoadDesign reads a design saved by SaveDesign, validating both the
// topology and every route.
func LoadDesign(r io.Reader) (*topology.Network, *routing.Table, error) {
	var in designJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("synth: decoding design: %v", err)
	}
	// Everything topology and routing index by, or panic on, is checked
	// first. Every processor must be attached, so the switch lists bound
	// procs — and with it the allocation a hostile header could ask for.
	listed := 0
	for _, procs := range in.Switches {
		listed += len(procs)
	}
	if in.Procs < 0 || in.Procs > listed {
		return nil, nil, fmt.Errorf("synth: design declares %d processors but attaches %d", in.Procs, listed)
	}
	for i := range in.Pipes {
		p := &in.Pipes[i]
		if n := len(in.Switches); p.A < 0 || p.B < 0 || p.A >= n || p.B >= n || p.A == p.B || p.Width <= 0 {
			return nil, nil, fmt.Errorf("synth: pipe (%d,%d) of width %d is not a link between two of %d switches", p.A, p.B, p.Width, n)
		}
		if p.B < p.A {
			p.A, p.B = p.B, p.A
		}
	}
	for _, rj := range in.Routes {
		if rj.Src < 0 || rj.Src >= in.Procs || rj.Dst < 0 || rj.Dst >= in.Procs {
			return nil, nil, fmt.Errorf("synth: route (%d,%d) references a processor outside 0..%d", rj.Src, rj.Dst, in.Procs-1)
		}
	}
	net := topology.New(in.Name, in.Procs)
	for _, procs := range in.Switches {
		s := net.AddSwitch()
		for _, p := range procs {
			if p < 0 || p >= in.Procs {
				return nil, nil, fmt.Errorf("synth: design references processor %d of %d", p, in.Procs)
			}
			net.AttachProc(p, s)
		}
	}
	// Pipes sorted for a canonical in-memory order.
	sort.Slice(in.Pipes, func(i, j int) bool {
		if in.Pipes[i].A != in.Pipes[j].A {
			return in.Pipes[i].A < in.Pipes[j].A
		}
		return in.Pipes[i].B < in.Pipes[j].B
	})
	for _, p := range in.Pipes {
		net.SetPipe(topology.SwitchID(p.A), topology.SwitchID(p.B), p.Width)
	}
	if err := net.Validate(); err != nil {
		return nil, nil, err
	}
	table := routing.NewTable(net)
	for _, rj := range in.Routes {
		route := routing.Route{Links: rj.Links}
		for _, s := range rj.Switches {
			route.Switches = append(route.Switches, topology.SwitchID(s))
		}
		table.Routes[model.F(rj.Src, rj.Dst)] = route
	}
	if err := table.Validate(); err != nil {
		return nil, nil, err
	}
	return net, table, nil
}
