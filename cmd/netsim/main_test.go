package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/flitsim"
	"repro/internal/hier"
	"repro/internal/nas"
	"repro/internal/synth"
)

// TestReplayHierDesign: a two-level design saved as netgen -clusters writes
// it replays through hier.Simulate, cycle for cycle, instead of failing as a
// single-level design with no processors attached.
func TestReplayHierDesign(t *testing.T) {
	pat, err := nas.Generate("CG", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := hier.ParseSpec("4")
	if err != nil {
		t.Fatal(err)
	}
	opt := synth.Options{Seed: 1}
	d, err := hier.Synthesize(pat, hier.Options{Spec: spec, NoC: opt, NoI: hier.NoIOptions(opt, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := hier.SaveDesign(&saved, d); err != nil {
		t.Fatal(err)
	}

	cfg := flitsim.Config{VCs: 3}
	got, err := replayDesign(pat, saved.Bytes(), cfg, true)
	if err != nil {
		t.Fatalf("replaying the saved CG/16@4 design: %v", err)
	}
	want, _, err := hier.Simulate(d, pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecCycles == 0 || got.ExecCycles != want.ExecCycles {
		t.Errorf("exec cycles %d, hier.Simulate %d", got.ExecCycles, want.ExecCycles)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay result %+v, hier.Simulate %+v", got, want)
	}
}
