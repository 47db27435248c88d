package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/trace"
)

// writeTrace saves CG/8 (one iteration) as a noctrace file in a fresh
// temporary directory and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	pat, err := nas.Generate("CG", 8, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, pat); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cg8.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNegativeKnobsRejected: a negative synthesis knob is an error netgen
// reports (main prints it and exits 1), flat and two-level alike. Each used to
// exit 0 after printing an unmeetable design, or, for -max-gateways, to mean
// "no cap".
func TestNegativeKnobsRejected(t *testing.T) {
	tracePath := writeTrace(t)
	for _, args := range [][]string{
		{"-maxdegree", "-1"},
		{"-maxprocs", "-2"},
		{"-clusters", "2", "-maxdegree", "-1"},
		{"-clusters", "2", "-noi-maxdegree", "-1"},
		{"-clusters", "2", "-noi-maxprocs", "-1"},
		{"-clusters", "2", "-max-gateways", "-1"},
		{"-clusters", "2", "-gateway-width", "-1"},
		{"-clusters", "2", "-noi-link-delay", "-1"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-trace", tracePath}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("netgen %v: error %v, want the negative knob rejected", args, err)
		}
		if strings.Contains(out.String(), "constraints met") {
			t.Errorf("netgen %v printed a design:\n%s", args, out.String())
		}
	}
}

// TestRunWritesDesign: a flat run prints the verdicts and saves a design
// LoadDesign reads back.
func TestRunWritesDesign(t *testing.T) {
	tracePath := writeTrace(t)
	netPath := filepath.Join(t.TempDir(), "cg8.json")
	var out bytes.Buffer
	if err := run([]string{"-trace", tracePath, "-o", netPath}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"design constraints met: true", "contention-free (Theorem 1, C ∩ R = ∅): true", "written to " + netPath} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	f, err := os.Open(netPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := synth.LoadDesign(f); err != nil {
		t.Fatal(err)
	}
}

// TestRunMissingTrace: netgen without -trace is an error, not a panic.
func TestRunMissingTrace(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Errorf("netgen with no arguments: error %v, want -trace required", err)
	}
}
