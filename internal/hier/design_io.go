package hier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/synth"
)

// hierDesignJSON is the serialized form of a composite two-level design,
// as LoadDesign decodes it: the "hier-design" v1 schema. The clustering and
// gateway lists are stored explicitly; each level embeds a complete
// single-level design document (the synth.SaveDesign format), so every
// chiplet and the NoI load and validate through the existing loader.
// AppendDesign writes it.
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

// DesignSchema is the "schema" field of a SaveDesign document, which tells
// it apart from a single-level synth.SaveDesign one.
const DesignSchema = "hier-design"

const designVersion = 1

// SaveDesign writes the composite design as hier-design v1 JSON, indented by
// two spaces and ended by a newline. The bytes are deterministic for a
// deterministic design: cluster and gateway lists are canonical, and each
// embedded level is synth's stable design v1 encoding.
func SaveDesign(w io.Writer, d *Design) error {
	a := synth.NewAppender(nil, true, 0)
	AppendDesign(a, d)
	_, err := w.Write(append(a.B, '\n'))
	return err
}

// AppendDesign writes the composite design as a hier-design v1 document in
// a's form, each level through synth's design v1 appender. A nil cluster
// list is null, as encoding/json writes it; gateway lists, nil ones (the
// gateway-less single-cluster case) included, are arrays; the noi field is
// left out of a design without a NoI.
func AppendDesign(a *synth.Appender, d *Design) {
	a.Open('{')
	a.Key("schema")
	a.String(DesignSchema)
	a.Key("version")
	a.Int(designVersion)
	a.Key("name")
	a.String(d.Name)
	a.Key("procs")
	a.Int(d.Procs)
	a.Key("clusters")
	if d.Assign.Clusters == nil {
		a.Null()
	} else {
		a.Open('[')
		for _, members := range d.Assign.Clusters {
			if members == nil {
				a.Null()
			} else {
				synth.Ints(a, members)
			}
		}
		a.Close(']')
	}
	a.Key("gateways")
	a.Open('[')
	for _, gws := range d.Assign.Gateways {
		synth.Ints(a, gws)
	}
	a.Close(']')
	a.Key("gateway_width")
	a.Int(d.GatewayWidth)
	a.Key("noi_link_delay")
	a.Int(d.NoILinkDelay)
	a.Key("chiplets")
	if len(d.Chiplets) == 0 {
		a.Null()
	} else {
		a.Open('[')
		for _, lv := range d.Chiplets {
			a.Design(lv.Net, lv.Table)
		}
		a.Close(']')
	}
	if d.NoI != nil {
		a.Key("noi")
		a.Design(d.NoI.Net, d.NoI.Table)
	}
	a.Close('}')
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
	if in.Schema != DesignSchema || in.Version != designVersion {
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
