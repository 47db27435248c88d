package workloads

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/trace"
)

func encode(t *testing.T, p *model.Pattern) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := trace.Encode(&b, p); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestNamesNASFirst(t *testing.T) {
	want := append(nas.Names(), collective.Names()...)
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

// TestGenerateMatchesRegistries pins the registry as a pure router: every
// name at its paper sizes (and a collective at 64) encodes to the bytes of
// the direct nas or collective call with the mapped config, and Messages
// counts what Generate builds.
func TestGenerateMatchesRegistries(t *testing.T) {
	for _, cfg := range []Config{{}, {Iterations: 2, ByteScale: 0.5}} {
		for _, name := range nas.Names() {
			small, large := nas.PaperProcs(name)
			for _, procs := range []int{small, large} {
				want, err := nas.Generate(name, procs, nas.Config{Iterations: cfg.Iterations, ByteScale: cfg.ByteScale})
				if err != nil {
					t.Fatal(err)
				}
				checkSame(t, name, procs, cfg, want)
			}
		}
		for _, name := range collective.Names() {
			small, large := collective.PaperNodes(name)
			for _, nodes := range []int{small, large, 64} {
				want, err := collective.Generate(name, nodes, collective.Config{Repeats: cfg.Iterations, ByteScale: cfg.ByteScale})
				if err != nil {
					t.Fatal(err)
				}
				checkSame(t, name, nodes, cfg, want)
			}
		}
	}
}

func checkSame(t *testing.T, name string, procs int, cfg Config, want *model.Pattern) {
	t.Helper()
	got, err := Generate(name, procs, cfg)
	if err != nil {
		t.Fatalf("%s/%d %+v: %v", name, procs, cfg, err)
	}
	if !bytes.Equal(encode(t, got), encode(t, want)) {
		t.Errorf("%s/%d %+v: encoding differs from the registry's", name, procs, cfg)
	}
	if n := Messages(name, procs, cfg); n != len(got.Messages) {
		t.Errorf("%s/%d %+v: Messages = %d, Generate built %d", name, procs, cfg, n, len(got.Messages))
	}
}

// TestGenerateTelemetry: the generators' own counters still report to
// Config.Obs, once per pattern and only for the registry that built it.
func TestGenerateTelemetry(t *testing.T) {
	col := obs.NewCollector()
	for _, name := range []string{"CG", "ring-allreduce", "LU"} {
		Generate(name, 16, Config{Iterations: 1, Obs: col})
	}
	if n, m := col.Counter("nas.patterns"), col.Counter("collective.patterns"); n != 1 || m != 1 {
		t.Errorf("nas.patterns = %d, collective.patterns = %d, want 1 and 1", n, m)
	}
}

// TestErrors pins the one classification: every refusal is an *Error whose
// text is what the server has always answered, and which still unwraps to
// the registries' typed errors.
func TestErrors(t *testing.T) {
	_, err := Generate("LU", 16, Config{})
	var we *Error
	if !errors.As(err, &we) {
		t.Fatalf("unknown name: got %v, want *Error", err)
	}
	const unknown = `unknown benchmark or collective "LU" (benchmarks [BT CG FFT MG SP], collectives [ring-allreduce reduce-scatter all-gather tree-broadcast])`
	if err.Error() != unknown {
		t.Errorf("unknown name: %q, want %q", err, unknown)
	}
	var ube *nas.UnknownBenchmarkError
	var uce *collective.UnknownCollectiveError
	if !errors.As(err, &ube) || !errors.As(err, &uce) {
		t.Errorf("unknown name: %v does not unwrap to both registries' errors", err)
	}
	if n := Messages("LU", 16, Config{}); n != 0 {
		t.Errorf("Messages of an unknown name = %d, want 0", n)
	}

	for _, tc := range []struct {
		name  string
		procs int
	}{{"CG", 7}, {"SP", 8}, {"ring-allreduce", 512}, {"tree-broadcast", 12}} {
		_, err := Generate(tc.name, tc.procs, Config{})
		if !errors.As(err, &we) {
			t.Fatalf("%s/%d: got %v, want *Error", tc.name, tc.procs, err)
		}
		_, want := nas.Generate(tc.name, tc.procs, nas.Config{})
		var pce *nas.ProcCountError
		typed := errors.As(err, &pce)
		if !errors.As(want, &pce) {
			var nce *collective.NodeCountError
			_, want = collective.Generate(tc.name, tc.procs, collective.Config{})
			typed = errors.As(err, &nce)
		}
		if !typed {
			t.Errorf("%s/%d: %v does not unwrap to its registry's shape error", tc.name, tc.procs, err)
		}
		if err.Error() != want.Error() {
			t.Errorf("%s/%d: %q, want the registry's %q", tc.name, tc.procs, err, want)
		}
	}
}

// FuzzWorkload drives registry names and junk, sizes and iteration counts
// through Generate: every input yields either a valid pattern of exactly
// Messages messages or an *Error — never a panic, never an unclassified
// error.
func FuzzWorkload(f *testing.F) {
	names := Names()
	for i := range names {
		f.Add(uint8(i), "", 16, 1)
	}
	f.Add(uint8(0), "", 9, 0)
	f.Add(uint8(1), "", 7, 2)
	f.Add(uint8(8), "", 12, 1)
	f.Add(uint8(5), "", 257, 1)
	f.Add(uint8(4), "", 0, 1) // SP at 0 = 0² processors
	f.Add(uint8(255), "LU", 16, 1)
	f.Add(uint8(255), "", -3, -1)
	f.Fuzz(func(t *testing.T, pick uint8, junk string, procs, iters int) {
		// Bound the work, not the validation: sizes stay raw below 300 so
		// every shape and range check is reached, but an accepted workload
		// stays unit-test sized.
		if procs > 300 {
			procs = procs%300 + 1
		}
		iters = max(iters, 0) % 3
		name := junk
		if int(pick) < len(names) {
			name = names[pick]
		}
		cfg := Config{Iterations: iters, ByteScale: 0.25}
		p, err := Generate(name, procs, cfg)
		if err != nil {
			var we *Error
			if !errors.As(err, &we) {
				t.Fatalf("Generate(%q, %d): unclassified error %v", name, procs, err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Generate(%q, %d): invalid pattern: %v", name, procs, err)
		}
		if n := Messages(name, procs, cfg); n != len(p.Messages) {
			t.Fatalf("Generate(%q, %d, %d iterations): Messages = %d, built %d", name, procs, iters, n, len(p.Messages))
		}
	})
}
