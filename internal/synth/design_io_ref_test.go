package synth

import (
	"encoding/json"
	"io"

	"repro/internal/routing"
	"repro/internal/topology"
)

// saveDesignMarshal is SaveDesign as it was before Appender: the design
// copied into designJSON and written by a json.Encoder indenting two spaces.
// It is the oracle TestRenderMatchesMarshal holds SaveDesign and both of
// Appender's forms to.
func saveDesignMarshal(w io.Writer, net *topology.Network, table *routing.Table) error {
	out := designJSON{Name: net.Name, Procs: net.Procs}
	for _, sw := range net.Switches {
		procs := sw.Procs
		if procs == nil {
			procs = []int{}
		}
		out.Switches = append(out.Switches, procs)
	}
	for _, p := range net.Pipes {
		out.Pipes = append(out.Pipes, pipeJSON{A: int(p.A), B: int(p.B), Width: p.Width})
	}
	flows := table.SortedFlows()
	for _, f := range flows {
		r := table.Routes[f]
		rj := routeJSON{Src: f.Src, Dst: f.Dst, Links: r.Links}
		if rj.Links == nil {
			rj.Links = []int{}
		}
		for _, s := range r.Switches {
			rj.Switches = append(rj.Switches, int(s))
		}
		out.Routes = append(out.Routes, rj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
