package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseTrace checks three properties of the noctrace v1 codec on
// arbitrary input: Decode never panics, no pattern it accepts holds a NaN
// message time or phase compute gap, and on every input it accepts,
// parse → serialize → parse is a fixed point (the second encoding is
// byte-identical to the first).
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
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
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
