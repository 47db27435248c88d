package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseTrace checks four properties of the noctrace v1 codec on
// arbitrary input: Decode never panics, it agrees with decodeFields (the
// string-per-line decoder it replaced: an equal pattern, samePattern, or the
// same error text), no pattern it accepts holds a NaN message time or phase
// compute gap, and on every input it accepts, parse → serialize → parse is a
// fixed point (the second encoding is byte-identical to the first).
func FuzzParseTrace(f *testing.F) {
	seeds := []string{
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\n",
		"noctrace v1\nname cg.4\nprocs 4\nmsg 0 0 1 0 1.5 64\nmsg 1 2 3 0.5 2 32\nphase p0 0 2 1 0 1\n",
		"# comment\n\nnoctrace v1\nprocs 1\n",
		"noctrace v1\nprocs 3\nmsg 7 0 2 0.25 0.75 16\nphase - 0 1 0 0\n",
		// Corrupt or odd inputs that must not crash the parser.
		"noctrace v2\nprocs 2\n",
		"noctrace v1\nprocs -2\n",
		"noctrace v1\nprocs 2\nmsg 0 0 9 0 1 8\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 2 1 8\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1\n",
		"noctrace v1\nprocs 2\nphase a 0 1 0 99\n",
		"noctrace v1\nbogus directive\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 NaN 1 8\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 NaN NaN 64\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 +Inf 8\nphase a 0 1 NaN 0\n",
		"",
	}
	for _, s := range append(seeds, decodeEdgeInputs...) {
		if len(s) < 1<<16 {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data))
		ref, refErr := decodeFields(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Decode and decodeFields disagree on %q\n got error: %v\nwant error: %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !samePattern(p, ref) {
			t.Fatalf("Decode and decodeFields disagree on %q\n got: %+v\nwant: %+v", data, p, ref)
		}
		for _, m := range p.Messages {
			if math.IsNaN(m.Start) || math.IsNaN(m.Finish) {
				t.Fatalf("accepted message %d with a NaN time (%g to %g)", m.ID, m.Start, m.Finish)
			}
		}
		for i, ph := range p.Phases {
			if math.IsNaN(ph.ComputeAfter) {
				t.Fatalf("accepted phase %d with a NaN compute gap", i)
			}
		}
		var first bytes.Buffer
		if err := Encode(&first, p); err != nil {
			t.Fatalf("Encode of accepted pattern failed: %v", err)
		}
		p2, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-Decode of own encoding failed: %v\nencoding:\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := Encode(&second, p2); err != nil {
			t.Fatalf("second Encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("parse→serialize→parse not a fixed point\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// decodeEdgeInputs are traces on the edges of the field splitter and the
// number parsers: the spellings strconv accepts or rejects beyond the plain
// decimals Encode writes, every ASCII space, Unicode spaces the ASCII
// splitter must not split on by itself, invalid UTF-8, and comments.
var decodeEdgeInputs = []string{
	"noctrace v1\nprocs +5\nmsg 0 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg -0 0 1 0 1 8\n",
	"noctrace v1\nprocs 007\nmsg 007 0 1 0 1 008\n",
	"noctrace v1\nprocs 2\nmsg 1_0 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 1_0 2_0 8\n",
	"noctrace v1\nprocs 0x10\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0x1p-2 0x10 8\n",
	"noctrace v1\nprocs 2\nmsg 9223372036854775807 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg 9223372036854775808 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg -9223372036854775808 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg -9223372036854775809 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 99999999999999999999\n",
	"noctrace v1\nprocs 2\nmsg 123456789012345678 0 1 0 1 1234567890123456789\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 -Inf +Inf 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 -inf infinity 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 +INFINITY 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 nan 1 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nphase p 0 1 NaN 0\n",
	"noctrace v1\nprocs 1\nphase - NaN -nan 0\nphase - -0 +0 -0\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1e400 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 1e-400 1 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 .5 5. 8\n",
	"noctrace v1\nprocs 2\nmsg - 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg -- 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 -\n",
	"noctrace\tv1\nprocs\t2\nmsg\t0\t0\t1\t0\t1\t8\nphase\tp\t0\t1\t0\t0\n",
	"noctrace v1\r\nprocs 2\r\nmsg 0 0 1 0 1 8\r\n",
	"noctrace v1\vprocs 2\n\fmsg 0 0 1 0 1 8\f\n",
	"noctrace v1\nprocs\t2\nmsg 0\t0 1 0 1 8\n",
	"noctrace v1\nprocs\v2\nmsg 0\v0 1 0 1 8\n",
	"noctrace v1\nprocs\f2\nmsg 0\f0 1 0 1 8\n",
	"noctrace v1\nprocs\r2\nmsg 0\r0 1 0 1 8\n",
	"noctrace v1\nprocs\x1c2\nmsg 0\x1f0 1 0 1 8\n",
	"noctrace v1\nprocs\u20032\nmsg 0\u30000 1 0 1 8\n",
	"noctrace v1\nprocs 2\x80\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\nmsg 0\u00850 1 0 1 8\n",
	" noctrace v1\u0085\nprocs 2 \n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8 \n",
	"noctrace v1\nname caf\xe9\nprocs 2\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\xa0\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 \xc2\xa08\n",
	"noctrace v1\nprocs 2\n\xff\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\n   # a comment after spaces\n\t#\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8 # a trailing comment\n",
	"  noctrace    v1  \nprocs 2\n",
	"noctrace  v1 extra\nprocs 2\n",
	"  noctrace  v2  \nprocs 2\n",
	"  noctrace　v2 \u0085\n",
	"noctrace v1\nphase - 0 1 0\nprocs 1\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nphase - 0 1 0 0 0 0\nphase two 0 1 0 +0 x\n",
	"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nphase - 0 1 0 0 1\n",
	"noctrace v1\nname\nprocs 2\n",
	"noctrace v1\nprocs\n",
	"noctrace v1\nmsg 0 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\n\x00msg 0 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\n" + strings.Repeat("x", 1<<20) + "\n",
	// The line bound's edges: 1 MiB less one byte is the longest line, with
	// its newline or at the end of the input.
	"noctrace v1\nprocs 2\n#" + strings.Repeat("x", 1<<20-2) + "\nmsg 0 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\n#" + strings.Repeat("x", 1<<20-2),
	"noctrace v1\nprocs 2\n#" + strings.Repeat("x", 1<<20-1),
	"noctrace v1\nprocs 2\n#" + strings.Repeat("x", 1<<20-3) + "\r\nmsg 0 0 1 0 1 8\n",
	"noctrace v1\nprocs 2\n#" + strings.Repeat("x", 1<<20-2) + "\r\nmsg 0 0 1 0 1 8\n",
	"noctrace v1",
	"#only a comment\n",
	"\n\n\t\n",
}
