package serve

import (
	"bytes"
	"encoding/json"
	"io"
)

// renderResponseMarshal is the response render renderResponse replaced: the
// design saved by save (synth.SaveDesign or hier.SaveDesign, each held to
// its own encoding/json oracle) into a buffer and embedded as a
// json.RawMessage, the whole response marshalled, which compacts the
// design, and the result indented, which indents it again. It is the oracle
// TestRenderMatchesMarshal holds renderResponse to.
func renderResponseMarshal(resp DesignResponse, save func(io.Writer) error) (row, body []byte, err error) {
	var design bytes.Buffer
	if err := save(&design); err != nil {
		return nil, nil, err
	}
	resp.Design = design.Bytes()
	if row, err = json.Marshal(&resp); err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	if err := json.Indent(&b, row, "", "  "); err != nil {
		return nil, nil, err
	}
	b.WriteByte('\n')
	return row, b.Bytes(), nil
}
