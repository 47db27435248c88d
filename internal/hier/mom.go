package hier

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/synth"
	"repro/internal/topology"
)

// MeshOfMeshes builds the regular two-level baseline the synthesized
// composite is judged against: every chiplet is a dimension-order-routed
// mesh over its cluster, the NoI is a mesh over the gateway endpoints, and
// the same gateway pipes join the levels. It goes through the identical
// Design/Flatten machinery as the synthesized composite — same assignment,
// same gateway remapping, same link delays — so the comparison isolates
// topology quality, not plumbing.
func MeshOfMeshes(p *model.Pattern, assign *Assignment, gatewayWidth, noiLinkDelay int) (*Design, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("hier: %v", err)
	}
	if err := checkLinks(gatewayWidth, noiLinkDelay); err != nil {
		return nil, err
	}
	opt := Options{GatewayWidth: gatewayWidth, NoILinkDelay: noiLinkDelay}.Normalized()
	d, _, err := compose("mom."+p.Name, p, assign, opt, meshLevel)
	return d, err
}

// meshLevel builds one mesh level: a near-square mesh over the sub-pattern's
// processors with dimension-order routes for its flows; it has no options.
func meshLevel(sub *model.Pattern, _ synth.Options) (*Level, error) {
	rows, cols := topology.GridDims(sub.Procs)
	net, grid := topology.Mesh(rows, cols)
	net.Name = "mesh." + sub.Name
	table, err := routing.DORMesh(net, grid, sub.Flows())
	if err != nil {
		return nil, err
	}
	return &Level{Pattern: sub, Net: net, Table: table}, nil
}
