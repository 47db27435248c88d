package hier

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/flitsim"
	"repro/internal/synth"
	"repro/internal/topology"
)

// TestFlattenCappedGateways replays CG-16 through a composite whose clusters
// expose a single gateway each, forcing every inter-cluster route through
// the forwarding-leg path (intra-route to the gateway, NoI crossing,
// intra-route from the peer gateway). The flattened network must validate,
// every composite route must be a simple path touching the NoI exactly when
// the flow crosses clusters, and the simulation must complete the trace.
func TestFlattenCappedGateways(t *testing.T) {
	pat := cg16(t)
	spec, _ := ParseSpec("blocks:4")
	opt := hierOptions(0)
	opt.Spec = spec
	opt.MaxGateways = 1
	opt.GatewayWidth = 2
	d, err := Synthesize(pat, opt)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Flatten(d, pat)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Net.Validate(); err != nil {
		t.Fatalf("flattened network invalid: %v", err)
	}
	a := d.Assign
	for _, f := range pat.Flows() {
		r, ok := flat.Table.Routes[f]
		if !ok {
			t.Fatalf("flow %v has no composite route", f)
		}
		seenSwitch := make(map[topology.SwitchID]bool)
		touchesNoI := false
		for _, s := range r.Switches {
			if seenSwitch[s] {
				t.Fatalf("flow %v: composite route revisits switch %d: %v", f, s, r.Switches)
			}
			seenSwitch[s] = true
			if s >= flat.NoIOffset {
				touchesNoI = true
			}
		}
		if inter := a.Of[f.Src] != a.Of[f.Dst]; touchesNoI != inter {
			t.Errorf("flow %v: touchesNoI=%t but inter-cluster=%t", f, touchesNoI, inter)
		}
		if len(r.Links) != len(r.Switches)-1 {
			t.Errorf("flow %v: %d links for %d switches", f, len(r.Links), len(r.Switches))
		}
	}
	// The two-class link-delay function: gateway/NoI hops are slower.
	if flat.LinkDelay(0, flat.NoIOffset) != d.NoILinkDelay {
		t.Errorf("NoI-crossing hop delay %d, want %d", flat.LinkDelay(0, flat.NoIOffset), d.NoILinkDelay)
	}
	if flat.LinkDelay(0, 1) != 1 {
		t.Errorf("intra hop delay %d, want 1", flat.LinkDelay(0, 1))
	}
	res, _, err := Simulate(d, pat, flitsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCycles <= 0 || res.Messages != len(pat.Messages) {
		t.Fatalf("simulation incomplete: %+v", res)
	}
}

// TestSimulateLinkDelay pins which delay model a replay runs under:
// Flat.LinkDelay unless the caller supplied one.
func TestSimulateLinkDelay(t *testing.T) {
	pat := cg16(t)
	opt := hierOptions(0)
	opt.Spec = mustSpec(t, "flow:4")
	d, err := Synthesize(pat, opt)
	if err != nil {
		t.Fatal(err)
	}
	type delay = func(a, b topology.SwitchID) int
	unit := func(a, b topology.SwitchID) int { return 1 }
	var cycles []int64
	for _, tc := range []struct {
		name  string
		given delay
		want  func(*Flat) delay
	}{
		{"hierarchical default", nil, func(f *Flat) delay { return f.LinkDelay }},
		{"caller's delay wins", unit, func(*Flat) delay { return unit }},
	} {
		got, flat, err := Simulate(d, pat, flitsim.Config{LinkDelay: tc.given})
		if err != nil {
			t.Fatal(err)
		}
		want, err := flitsim.RunGenerated(pat, flat.Net, flat.Table, flitsim.Config{LinkDelay: tc.want(flat)})
		if err != nil {
			t.Fatal(err)
		}
		if got.ExecCycles != want.ExecCycles || got.FlitHops != want.FlitHops {
			t.Errorf("%s: replay %d cycles / %d flit hops, want %d / %d",
				tc.name, got.ExecCycles, got.FlitHops, want.ExecCycles, want.FlitHops)
		}
		cycles = append(cycles, got.ExecCycles)
	}
	if cycles[0] <= cycles[1] {
		t.Errorf("NoI delay %d made the replay no slower than unit delays: %v cycles", d.NoILinkDelay, cycles)
	}
}

// TestFlattenErrors pins the argument checks.
func TestFlattenErrors(t *testing.T) {
	pat := cg16(t)
	spec, _ := ParseSpec("flow:4")
	opt := hierOptions(0)
	opt.Spec = spec
	d, err := Synthesize(pat, opt)
	if err != nil {
		t.Fatal(err)
	}
	wrong := ring64(t)
	if _, err := Flatten(d, wrong); err == nil {
		t.Error("Flatten accepted a pattern with the wrong processor count")
	}
	if _, err := Flatten(nil, pat); err == nil {
		t.Error("Flatten accepted a nil design")
	}
}

// TestSynthesizeErrors pins the option validation in hier.Synthesize.
func TestSynthesizeErrors(t *testing.T) {
	pat := cg16(t)
	if _, err := Synthesize(pat, Options{}); err == nil {
		t.Error("Synthesize accepted options without a Spec")
	}
	spec, _ := ParseSpec("blocks:99")
	if _, err := Synthesize(pat, Options{Spec: spec}); err == nil {
		t.Error("Synthesize accepted an unsatisfiable spec")
	}
	if _, err := Synthesize(nil, Options{Spec: spec}); err == nil {
		t.Error("Synthesize accepted a nil pattern")
	}
	// A negative knob is an error, not a default: zero selects the default.
	spec = mustSpec(t, "blocks:4")
	for name, opt := range map[string]Options{
		"MaxGateways":           {Spec: spec, MaxGateways: -1},
		"GatewayWidth":          {Spec: spec, GatewayWidth: -1},
		"NoILinkDelay":          {Spec: spec, NoILinkDelay: -2},
		"NoI MaxDegree":         {Spec: spec, NoI: synth.Options{Constraints: synth.Constraints{MaxDegree: -1}}},
		"NoC MaxProcsPerSwitch": {Spec: spec, NoC: synth.Options{Constraints: synth.Constraints{MaxProcsPerSwitch: -1}}},
	} {
		if _, err := Synthesize(pat, opt); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("negative %s: error %v, want it rejected", name, err)
		}
	}
	if _, err := Partition(pat, spec, -1); err == nil {
		t.Error("Partition accepted a negative gateway cap")
	}
	assign, err := Partition(pat, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeshOfMeshes(pat, assign, -1, 0); err == nil {
		t.Error("MeshOfMeshes accepted a negative gateway width")
	}
}

func mustSpec(t *testing.T, s string) *Spec {
	t.Helper()
	sp, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestLoadDesignErrors pins the loader's rejection paths: bad schema,
// inconsistent clustering, level/cluster mismatches, and a missing NoI.
func TestLoadDesignErrors(t *testing.T) {
	pat := cg16(t)
	opt := hierOptions(0)
	opt.Spec = mustSpec(t, "flow:4")
	d, err := Synthesize(pat, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDesign(&buf, d); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	mutate := func(f func(m map[string]any)) string {
		var m map[string]any
		if err := json.Unmarshal(base, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	cases := map[string]string{
		"not json":      "{",
		"wrong schema":  mutate(func(m map[string]any) { m["schema"] = "design" }),
		"wrong version": mutate(func(m map[string]any) { m["version"] = 2 }),
		"zero width":    mutate(func(m map[string]any) { m["gateway_width"] = 0 }),
		"zero delay":    mutate(func(m map[string]any) { m["noi_link_delay"] = 0 }),
		"missing noi":   mutate(func(m map[string]any) { delete(m, "noi") }),
		"level count":   mutate(func(m map[string]any) { m["chiplets"] = m["chiplets"].([]any)[:2] }),
		"bad clusters":  mutate(func(m map[string]any) { m["clusters"] = [][]int{{0, 1}} }),
		"bad gateways":  mutate(func(m map[string]any) { m["gateways"] = [][]int{{99}, {}, {}, {}} }),
	}
	for name, text := range cases {
		if _, err := LoadDesign(strings.NewReader(text)); err == nil {
			t.Errorf("%s: LoadDesign accepted corrupt input", name)
		}
	}
	if _, err := LoadDesign(bytes.NewReader(base)); err != nil {
		t.Fatalf("pristine design no longer loads: %v", err)
	}
}
