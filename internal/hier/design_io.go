package hier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/synth"
)

// hierDesignJSON is the serialized form of a composite two-level design:
// the "hier-design" v1 schema. The clustering and gateway lists are stored
// explicitly; each level embeds a complete single-level design document
// (the synth.SaveDesign format), so every chiplet and the NoI load and
// validate through the existing loader.
type hierDesignJSON struct {
	Schema       string            `json:"schema"`
	Version      int               `json:"version"`
	Name         string            `json:"name"`
	Procs        int               `json:"procs"`
	Clusters     [][]int           `json:"clusters"`
	Gateways     [][]int           `json:"gateways"`
	GatewayWidth int               `json:"gateway_width"`
	NoILinkDelay int               `json:"noi_link_delay"`
	Chiplets     []json.RawMessage `json:"chiplets"`
	NoI          json.RawMessage   `json:"noi,omitempty"`
}

const (
	designSchema  = "hier-design"
	designVersion = 1
)

// SaveDesign writes the composite design as hier-design v1 JSON. The bytes
// are deterministic for a deterministic design: cluster and gateway lists
// are canonical, and each embedded level reuses synth.SaveDesign's stable
// encoding.
func SaveDesign(w io.Writer, d *Design) error {
	out := hierDesignJSON{
		Schema:       designSchema,
		Version:      designVersion,
		Name:         d.Name,
		Procs:        d.Procs,
		Clusters:     d.Assign.Clusters,
		Gateways:     d.Assign.Gateways,
		GatewayWidth: d.GatewayWidth,
		NoILinkDelay: d.NoILinkDelay,
	}
	// Nil inner lists (e.g. the gateway-less single-cluster case) encode
	// as [] rather than null.
	out.Gateways = append([][]int{}, out.Gateways...)
	for i, gws := range out.Gateways {
		if gws == nil {
			out.Gateways[i] = []int{}
		}
	}
	for i, lv := range d.Levels() {
		var buf bytes.Buffer
		if err := synth.SaveDesign(&buf, lv.Net, lv.Table); err != nil {
			return err
		}
		if i < len(d.Chiplets) {
			out.Chiplets = append(out.Chiplets, buf.Bytes())
		} else {
			out.NoI = buf.Bytes()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadDesign reads a design saved by SaveDesign, validating the clustering
// (via NewAssignment), every level (via synth.LoadDesign), and the
// cross-level consistency of processor counts. Loaded levels carry no
// sub-patterns and no synthesis results; Flatten recomputes the flow split
// from whatever pattern it is asked to route.
func LoadDesign(r io.Reader) (*Design, error) {
	var in hierDesignJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("hier: decoding design: %v", err)
	}
	if in.Schema != designSchema || in.Version != designVersion {
		return nil, fmt.Errorf("hier: unsupported design schema %q v%d", in.Schema, in.Version)
	}
	gateways := in.Gateways
	if len(gateways) == 0 {
		gateways = nil
	}
	assign, err := NewAssignment(in.Procs, in.Clusters, gateways)
	if err != nil {
		return nil, err
	}
	if in.GatewayWidth <= 0 {
		return nil, fmt.Errorf("hier: design has gateway width %d", in.GatewayWidth)
	}
	if in.NoILinkDelay <= 0 {
		return nil, fmt.Errorf("hier: design has NoI link delay %d", in.NoILinkDelay)
	}
	d := &Design{
		Name:         in.Name,
		Procs:        in.Procs,
		Assign:       assign,
		GatewayWidth: in.GatewayWidth,
		NoILinkDelay: in.NoILinkDelay,
	}
	raws := in.Chiplets
	if len(in.NoI) > 0 {
		raws = append(raws, in.NoI)
	}
	for i, raw := range raws {
		net, table, err := synth.LoadDesign(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("hier: %s: %v", levelName(i, len(in.Chiplets)), err)
		}
		d.addLevel(&Level{Net: net, Table: table}, i == len(in.Chiplets))
	}
	if err := d.checkLevels(); err != nil {
		return nil, err
	}
	return d, nil
}
