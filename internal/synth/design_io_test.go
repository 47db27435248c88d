package synth

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

func TestSaveLoadDesignRoundTrip(t *testing.T) {
	pat := nas.Figure1Pattern()
	res, err := Synthesize(pat, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDesign(&buf, res.Net, res.Table); err != nil {
		t.Fatal(err)
	}
	net, table, err := LoadDesign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumSwitches() != res.Net.NumSwitches() || net.TotalLinks() != res.Net.TotalLinks() {
		t.Fatalf("topology changed: %d/%d vs %d/%d",
			net.NumSwitches(), net.TotalLinks(), res.Net.NumSwitches(), res.Net.TotalLinks())
	}
	for p := 0; p < net.Procs; p++ {
		if net.Home[p] != res.Net.Home[p] {
			t.Fatalf("home of proc %d changed", p)
		}
	}
	if len(table.Routes) != len(res.Table.Routes) {
		t.Fatalf("routes: %d vs %d", len(table.Routes), len(res.Table.Routes))
	}
	for f, want := range res.Table.Routes {
		got, ok := table.Routes[f]
		if !ok {
			t.Fatalf("flow %v lost", f)
		}
		if len(got.Switches) != len(want.Switches) {
			t.Fatalf("flow %v route length changed", f)
		}
		for i := range want.Switches {
			if got.Switches[i] != want.Switches[i] {
				t.Fatalf("flow %v switch %d changed", f, i)
			}
		}
		for i := range want.Links {
			if got.Links[i] != want.Links[i] {
				t.Fatalf("flow %v link assignment changed at hop %d", f, i)
			}
		}
	}
	// Theorem 1 must survive serialization.
	ix := model.NewFlowIndex(pat.Flows())
	c := model.ConflictMatrixFromCliques(ix, model.ContentionPeriods(pat))
	free, _ := model.ContentionFreeBits(c, table.ConflictMatrix(ix))
	if !free {
		t.Fatal("loaded design not contention-free")
	}
}

func TestLoadDesignRejectsBad(t *testing.T) {
	bad := []string{
		`{`,
		`{"name":"x","procs":2,"switches":[[0,9]],"pipes":[],"routes":[]}`,
		// Route through a nonexistent pipe.
		`{"name":"x","procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":1,"width":1}],
		  "routes":[{"src":0,"dst":1,"switches":[1,0],"links":[0]}]}`,
	}
	for i, s := range bad {
		if _, _, err := LoadDesign(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: invalid design accepted", i)
		}
	}
}
