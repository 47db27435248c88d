package trace_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/trace"
)

// TestDecodeMatchesFieldsDecoder holds Decode to decodeFields, the
// string-per-line decoder it replaced, on the encoded codec corpus and on
// the edge inputs: each input yields an equal pattern from both (samePattern:
// deeply equal, floats by their bits), or an error with the same text.
func TestDecodeMatchesFieldsDecoder(t *testing.T) {
	inputs := append([]string(nil), trace.DecodeEdgeInputs...)
	for _, p := range codecCorpus(t) {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, p); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, buf.String())
	}
	accepted := 0
	for _, in := range inputs {
		if checkDecodersAgree(t, in) {
			accepted++
		}
	}
	if accepted < len(inputs)/2 {
		t.Fatalf("only %d of %d inputs decoded: the corpus no longer exercises the accepting path", accepted, len(inputs))
	}
}

// checkDecodersAgree fails t unless Decode and decodeFields agree on in, and
// reports whether they accepted it.
func checkDecodersAgree(t *testing.T, in string) bool {
	t.Helper()
	got, gotErr := trace.Decode(strings.NewReader(in))
	want, wantErr := trace.DecodeFields(strings.NewReader(in))
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("decoders disagree on %.200q\n got error: %v\nwant error: %v", in, gotErr, wantErr)
		}
		return false
	case !trace.SamePattern(got, want):
		t.Fatalf("decoders disagree on %.200q\n got: %+.300v\nwant: %+.300v", in, got, want)
	}
	return true
}

// TestDecodeReadErrorMatchesFieldsDecoder holds Decode to decodeFields on a
// stream that fails part way: the lines read before the failure are decoded,
// a malformed one among them (the last one cut short too) is the error, and
// otherwise the read error is.
func TestDecodeReadErrorMatchesFieldsDecoder(t *testing.T) {
	readErr := errors.New("disk on fire")
	for _, prefix := range []string{
		"",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nmsg 1 0 1 x 1 8\nmsg 2 0 1 0 1 8\n",
		"noctrace v2\n",
	} {
		stream := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(readErr)) }
		_, err := trace.Decode(stream())
		_, want := trace.DecodeFields(stream())
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("after %q: Decode's error %v, decodeFields' %v", prefix, err, want)
		}
	}
}

// jitterTrace is the encoded focus input of the warm_variants workload in
// bench/: CG/16 over 39 iterations, every processor skewed by up to half a
// time unit (about 100 KB, 1,716 messages).
func jitterTrace(tb testing.TB) string {
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 39})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.ApplySkew(p, 0.5, 1)); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// TestDecodeJitterAllocs holds Decode of the jitter trace to allocations
// that scale with its phases, not its lines: the decoder that allocated a
// string and a field slice per line made about 4,000 on it.
func TestDecodeJitterAllocs(t *testing.T) {
	in := jitterTrace(t)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := trace.Decode(strings.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Fatalf("Decode made %.0f allocations on the jitter trace, ceiling 500", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

func benchmarkDecodeJitter(b *testing.B, decode func(io.Reader) (*model.Pattern, error)) {
	in := jitterTrace(b)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(strings.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeJitter(b *testing.B)       { benchmarkDecodeJitter(b, trace.Decode) }
func BenchmarkDecodeJitterFields(b *testing.B) { benchmarkDecodeJitter(b, trace.DecodeFields) }
