package hier

import (
	"bytes"
	"encoding/json"
	"io"

	"repro/internal/synth"
)

// saveDesignMarshal is SaveDesign as it was before AppendDesign: each level
// saved by synth.SaveDesign into a buffer, embedded as a json.RawMessage and
// the whole written by a json.Encoder indenting two spaces, which compacts
// and re-indents every level. It is the oracle TestRenderMatchesMarshal
// holds SaveDesign and AppendDesign's two forms to.
func saveDesignMarshal(w io.Writer, d *Design) error {
	out := hierDesignJSON{
		Schema:       DesignSchema,
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
