package nas

import (
	"errors"
	"testing"
)

// TestGenerateBenchmarkNames pins the error contract the design server
// depends on: every NAS name generates cleanly, and any other name comes
// back as a typed *UnknownBenchmarkError — never a panic — so callers can
// map it to a client error with errors.As.
func TestGenerateBenchmarkNames(t *testing.T) {
	cases := []struct {
		name    string
		procs   int
		unknown bool
	}{
		{"BT", 9, false},
		{"CG", 8, false},
		{"FFT", 8, false},
		{"MG", 8, false},
		{"SP", 9, false},
		{"LU", 8, true},
		{"cg", 8, true}, // names are case-sensitive
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Generate(tc.name, tc.procs, Config{Iterations: 1})
			if !tc.unknown {
				if err != nil {
					t.Fatalf("Generate(%s, %d): %v", tc.name, tc.procs, err)
				}
				if p.Procs != tc.procs {
					t.Fatalf("got %d procs, want %d", p.Procs, tc.procs)
				}
				return
			}
			var ube *UnknownBenchmarkError
			if !errors.As(err, &ube) {
				t.Fatalf("Generate(%s): got %v, want *UnknownBenchmarkError", tc.name, err)
			}
			if ube.Name != tc.name {
				t.Errorf("error names %q, want %q", ube.Name, tc.name)
			}
		})
	}
}

// TestGenerateProcCountError pins the typed error for processor counts the
// benchmark structure cannot express.
func TestGenerateProcCountError(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		want  string
	}{
		{"CG", 6, "power-of-two"},
		{"FFT", 12, "power-of-two"},
		{"MG", 10, "power-of-two"},
		{"BT", 8, "perfect-square"},
		{"SP", 10, "perfect-square"},
		{"SP", 0, "perfect-square"}, // 0 = 0²: once an invalid pattern, not a shape error
		{"BT", -4, "perfect-square"},
	}
	for _, tc := range cases {
		_, err := Generate(tc.name, tc.procs, Config{Iterations: 1})
		var pce *ProcCountError
		if !errors.As(err, &pce) {
			t.Fatalf("Generate(%s, %d): got %v, want *ProcCountError", tc.name, tc.procs, err)
		}
		if pce.Benchmark != tc.name || pce.Procs != tc.procs || pce.Want != tc.want {
			t.Errorf("Generate(%s, %d): error fields %+v", tc.name, tc.procs, pce)
		}
	}
}
