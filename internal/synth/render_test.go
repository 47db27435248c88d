package synth_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/routing"
	"repro/internal/synth"
	"repro/internal/topology"
)

// oddName is a pattern name every escaping rule of encoding/json applies
// to: HTML's three characters, a quote, U+2028 and a byte of invalid UTF-8.
const oddName = "<&>\"\u2028\xff"

// indentedAt1 is an indented JSON document as json.Indent lays it out one
// level deep inside another: the element of a one-element array.
func indentedAt1(t *testing.T, compact []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, append(append([]byte{'['}, compact...), ']'), "", "  "); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	return b[len("[\n  ") : len(b)-len("\n]")]
}

// TestRenderMatchesMarshal holds the design renderer to the encoding/json
// path it replaced (saveDesignMarshal) byte for byte: SaveDesign itself, and
// the compact and one-level-deep indented forms the server splices into its
// responses, for every design of the golden corpus, a design whose name
// needs every kind of escaping, and one without switches, pipes or routes.
func TestRenderMatchesMarshal(t *testing.T) {
	type design struct {
		name  string
		net   *topology.Network
		table *routing.Table
	}
	var designs []design
	for _, run := range goldenRuns(t) {
		designs = append(designs, design{run.name, run.res.Net, run.res.Table})
	}
	p := nas.Figure1Pattern()
	p.Name = oddName
	res, err := synth.Synthesize(p, synth.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res.Net.Name, oddName) {
		t.Fatalf("the design is named %q, not after its pattern %q", res.Net.Name, oddName)
	}
	designs = append(designs, design{"odd name", res.Net, res.Table})
	empty := topology.New("", 0)
	bare := routing.NewTable(empty)
	bare.Routes[model.F(0, 1)] = routing.Route{}
	designs = append(designs, design{"empty", empty, routing.NewTable(empty)}, design{"bare route", empty, bare})

	for _, d := range designs {
		var want, got bytes.Buffer
		if err := synth.SaveDesignMarshal(&want, d.net, d.table); err != nil {
			t.Fatal(err)
		}
		if err := synth.SaveDesign(&got, d.net, d.table); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: SaveDesign differs from the encoding/json oracle:\n%s\nwant\n%s", d.name, got.Bytes(), want.Bytes())
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, want.Bytes()); err != nil {
			t.Fatal(err)
		}
		a := synth.NewAppender(nil, false, 0)
		a.Design(d.net, d.table)
		if !bytes.Equal(a.B, compact.Bytes()) {
			t.Errorf("%s: compact form\n%s\nwant\n%s", d.name, a.B, compact.Bytes())
		}
		a = synth.NewAppender([]byte("x"), true, 1)
		a.Design(d.net, d.table)
		if want := indentedAt1(t, compact.Bytes()); !bytes.Equal(a.B[1:], want) {
			t.Errorf("%s: form indented one level deep\n%s\nwant\n%s", d.name, a.B[1:], want)
		}
	}
}
