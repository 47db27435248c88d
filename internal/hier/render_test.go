package hier

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/synth"
)

// TestRenderMatchesMarshal holds the hier-design renderer to the
// encoding/json path it replaced (saveDesignMarshal) byte for byte:
// SaveDesign itself, and the compact and one-level-deep indented forms the
// server splices into its responses. The designs are the golden cells, a
// single-cluster design (no NoI, no gateways), a design named with every
// kind of escaping, explicit gateways that leave forwarding legs, and an
// empty composite whose lists are nil.
func TestRenderMatchesMarshal(t *testing.T) {
	var designs []*Design
	synthesize := func(name, spec string) {
		pat := cg16(t)
		for _, c := range goldenCells {
			if c.benchmark == name {
				pat = c.pat(t)
			}
		}
		if name == "odd" {
			pat.Name = "<&>\"\u2028\xff"
		}
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		opt := hierOptions(0)
		opt.Spec = sp
		d, err := Synthesize(pat, opt)
		if err != nil {
			t.Fatalf("%s at %s: %v", name, spec, err)
		}
		designs = append(designs, d)
	}
	for _, c := range goldenCells {
		synthesize(c.benchmark, "flow:4")
	}
	synthesize("CG.16", "1")
	synthesize("odd", "blocks:2")
	synthesize("CG.16", "0-7@3,5;8-15@9")
	designs = append(designs, &Design{Assign: &Assignment{}})
	if len(designs[4].Assign.Gateways[0]) != 2 || designs[3].Name != "<&>\"\u2028\xff" {
		t.Fatalf("the explicit spec placed gateways %v, the odd design is named %q", designs[4].Assign.Gateways, designs[3].Name)
	}

	for _, d := range designs {
		var want, got bytes.Buffer
		if err := saveDesignMarshal(&want, d); err != nil {
			t.Fatal(err)
		}
		if err := SaveDesign(&got, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: SaveDesign differs from the encoding/json oracle:\n%s\nwant\n%s", d.Name, got.Bytes(), want.Bytes())
			continue
		}
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, want.Bytes()); err != nil {
			t.Fatal(err)
		}
		a := synth.NewAppender(nil, false, 0)
		AppendDesign(a, d)
		if !bytes.Equal(a.B, compact.Bytes()) {
			t.Errorf("%s: compact form\n%s\nwant\n%s", d.Name, a.B, compact.Bytes())
		}
		// One level deep is the element of a one-element array.
		if err := json.Indent(&indented, append(append([]byte{'['}, compact.Bytes()...), ']'), "", "  "); err != nil {
			t.Fatal(err)
		}
		at1 := indented.Bytes()[len("[\n  ") : indented.Len()-len("\n]")]
		a = synth.NewAppender(nil, true, 1)
		AppendDesign(a, d)
		if !bytes.Equal(a.B, at1) {
			t.Errorf("%s: form indented one level deep\n%s\nwant\n%s", d.Name, a.B, at1)
		}
	}
}
