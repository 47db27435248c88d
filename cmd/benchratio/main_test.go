package main

import (
	"strings"
	"testing"
)

// benchText is `go test -bench` output as the flitsim gate sees it: header
// lines, a custom simcycles metric before -benchmem's columns, and a PASS
// trailer.
const benchText = `goos: linux
goarch: amd64
pkg: repro/internal/flitsim
cpu: Example CPU @ 2.00GHz
BenchmarkSimulateCG16Mesh-8          	     100	    100000 ns/op	     52442 simcycles	   2048 B/op	      12 allocs/op
BenchmarkSimulateCG16MeshReference-8 	      10	   2500000 ns/op	     52442 simcycles	   4096 B/op	      24 allocs/op
PASS
ok  	repro/internal/flitsim	3.141s
`

func TestGate(t *testing.T) {
	const ref, fast = "BenchmarkSimulateCG16MeshReference", "BenchmarkSimulateCG16Mesh"
	for _, tc := range []struct {
		name     string
		pairs    []string
		minRatio float64
		wantErr  string // "" for a pass
		wantOut  string
	}{
		{"suffix stripped on both sides", []string{ref + "-2:" + fast}, 10, "", "ratio " + ref + "-2 / " + fast + " = 25.00x (medians of 1 and 1 samples; floor 10.00x)"},
		{"missing benchmark", []string{ref + ":BenchmarkSimulateCG16Torus"}, 0, "both benchmarks in the input", ""},
		{"malformed pair", []string{ref}, 0, "want NUM:DEN", ""},
		{"below the floor", []string{ref + ":" + fast}, 30, "25.00x is below the floor 30.00x", "= 25.00x (medians of 1 and 1 samples; floor 30.00x)"},
	} {
		var out strings.Builder
		err := gate(strings.NewReader(benchText), &out, tc.pairs, tc.minRatio)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.wantErr)
		}
		if !strings.HasPrefix(out.String(), benchText) {
			t.Errorf("%s: input not echoed first:\n%s", tc.name, out.String())
		}
		if !strings.Contains(out.String(), tc.wantOut) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.wantOut, out.String())
		}
	}
}

// TestGateRepeatedNames gates the ratio of medians over every sample of a
// name, as go test -count N prints them: neither the last sample nor an
// outlier decides it.
func TestGateRepeatedNames(t *testing.T) {
	const in = `BenchmarkSlow-2   	10	 400 ns/op
BenchmarkFast-2   	10	 100 ns/op
BenchmarkSlow-2   	10	 600 ns/op
BenchmarkFast-2   	10	 900 ns/op
BenchmarkSlow-2   	10	 500 ns/op
BenchmarkFast-2   	10	 110 ns/op
BenchmarkSlow-2   	10	 100 ns/op
BenchmarkFast-2   	10	 90 ns/op
BenchmarkSlow-2   	10	 450 ns/op
`
	for _, tc := range []struct {
		minRatio float64
		wantErr  string
		wantOut  string
	}{
		// Slow's median is 450 of five, Fast's (100+110)/2 of four: 4.29x.
		// The last samples alone read 450/90 = 5.00x, the means 410/300 = 1.37x.
		{4, "", "ratio BenchmarkSlow / BenchmarkFast = 4.29x (medians of 5 and 4 samples; floor 4.00x)"},
		{4.5, "4.29x is below the floor 4.50x", "= 4.29x"},
	} {
		var out strings.Builder
		err := gate(strings.NewReader(in), &out, []string{"BenchmarkSlow:BenchmarkFast"}, tc.minRatio)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("floor %.2f: unexpected error %v", tc.minRatio, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("floor %.2f: err = %v, want it to contain %q", tc.minRatio, err, tc.wantErr)
		}
		if !strings.Contains(out.String(), tc.wantOut) {
			t.Errorf("floor %.2f: output lacks %q:\n%s", tc.minRatio, tc.wantOut, out.String())
		}
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkPlaceCG16-8":      "BenchmarkPlaceCG16",
		"BenchmarkPlaceCG16":        "BenchmarkPlaceCG16",
		"BenchmarkSweep/size-16-32": "BenchmarkSweep/size-16",
		"BenchmarkSweep/ring-x":     "BenchmarkSweep/ring-x",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
