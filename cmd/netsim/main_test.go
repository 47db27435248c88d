package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/flitsim"
	"repro/internal/hier"
	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestNegativeVCsRejected: -vcs -1 is an error netsim reports (main prints
// it and exits 1), on a baseline and on a generated design alike, where it
// used to panic allocating the buffers.
func TestNegativeVCsRejected(t *testing.T) {
	pat, err := nas.Generate("CG", 8, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "cg8.trace")
	var buf bytes.Buffer
	if err := trace.Encode(&buf, pat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(pat, synth.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := synth.SaveDesign(&buf, res.Net, res.Table); err != nil {
		t.Fatal(err)
	}
	netPath := filepath.Join(dir, "cg8.json")
	if err := os.WriteFile(netPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-topo", "mesh"},
		{"-topo", "torus"},
		{"-topo", "generated", "-net", netPath},
	} {
		err := run(append([]string{"-trace", tracePath, "-vcs", "-1"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "virtual channels") {
			t.Errorf("netsim %v -vcs -1: error %v, want the virtual-channel count rejected", args, err)
		}
	}
}

// TestVCsDefault: netsim without -vcs simulates flitsim's default virtual
// channel count, cycle for cycle.
func TestVCsDefault(t *testing.T) {
	pat, err := nas.Generate("CG", 8, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, pat); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "cg8.trace")
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := func(args ...string) string {
		var stdout bytes.Buffer
		if err := run(append([]string{"-trace", tracePath, "-topo", "mesh"}, args...), &stdout); err != nil {
			t.Fatal(err)
		}
		return stdout.String()
	}
	def := strconv.Itoa(flitsim.Config{}.Normalized().VCs)
	if got, want := out(), out("-vcs", def); got != want {
		t.Errorf("netsim without -vcs:\n%s\nwith -vcs %s:\n%s", got, def, want)
	}
}

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
