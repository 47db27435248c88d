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

// loadDesignPanics are files that used to take LoadDesign down inside
// topology: makeslice with a negative length, and SetPipe's self-pipe panic.
var loadDesignPanics = []string{
	`{"procs":-1}`,
	`{"procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":0,"width":1}]}`,
}

func TestLoadDesignRejectsBad(t *testing.T) {
	bad := append([]string{
		`{`,
		`{"name":"x","procs":2,"switches":[[0,9]],"pipes":[],"routes":[]}`,
		// Route through a nonexistent pipe.
		`{"name":"x","procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":1,"width":1}],
		  "routes":[{"src":0,"dst":1,"switches":[1,0],"links":[0]}]}`,
		// More processors declared than attached, a pipe to a missing
		// switch, a negative or zero width, a route for a processor out of
		// range.
		`{"procs":99999999999,"switches":[[0]]}`,
		`{"procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":-1,"width":1}]}`,
		`{"procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":1,"width":-1}]}`,
		`{"procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":1,"width":0}]}`,
		`{"procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":1,"width":1}],
		  "routes":[{"src":0,"dst":2,"switches":[0,1],"links":[0]}]}`,
	}, loadDesignPanics...)
	for i, s := range bad {
		if _, _, err := LoadDesign(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: invalid design accepted", i)
		}
	}
}

// FuzzLoadDesign feeds arbitrary bytes to the design loader netsim, hier and
// the server's seed path all share. It must never panic, and a design it
// accepts must save to bytes that load and save again unchanged.
func FuzzLoadDesign(f *testing.F) {
	pat, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		f.Fatal(err)
	}
	res, err := Synthesize(pat, Options{Seed: 1, Restarts: 1})
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := SaveDesign(&saved, res.Net, res.Table); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	for _, reproducer := range loadDesignPanics {
		f.Add([]byte(reproducer))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		net, table, err := LoadDesign(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := SaveDesign(&first, net, table); err != nil {
			t.Fatalf("saving an accepted design: %v", err)
		}
		net, table, err = LoadDesign(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved design: %v\n%s", err, first.Bytes())
		}
		if err := SaveDesign(&second, net, table); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("load → save is not a fixed point:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
