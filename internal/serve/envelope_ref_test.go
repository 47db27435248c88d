package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// decodeRequestJSON is the request decode decodeRequest replaced: a
// json.Decoder that disallows unknown fields reads one DesignRequest, and a
// second Token call must meet the end of the body. It scanned the body
// twice and copied the trace into a string; it is the oracle
// FuzzDesignRequestDecode holds decodeRequest to.
func decodeRequestJSON(raw []byte) (DesignRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req DesignRequest
	if err := dec.Decode(&req); err != nil {
		return DesignRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return DesignRequest{}, errors.New("unexpected data after the request object")
	}
	return req, nil
}
