package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// flat renders an op as comparable text.
func flat(op Op) string {
	var b strings.Builder
	b.WriteString(op.Class + " " + op.Method + " " + op.Path + " " + op.Golden + " ")
	b.Write(op.Body())
	for _, r := range op.Refs {
		b.WriteString(" ref")
		b.WriteByte(byte('0' + r%10))
	}
	if op.Cell != nil {
		b.WriteString(" " + op.Cell.Kind + ":" + op.Cell.Key())
	}
	return b.String()
}

func take(s Spec, seed int64, n int) []string {
	var out []string
	for _, op := range s.NewStream(seed, false).Take(n) {
		out = append(out, flat(op))
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, s := range Specs() {
		a, b := take(s, 7, 300), take(s, 7, 300)
		if len(a) != 300 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 did not reproduce its %d-op request list", s.Name, len(a))
		}
	}
}

// classMix counts ops per class.
func classMix(s Spec, seed int64, n int) map[string]int {
	mix := map[string]int{}
	for _, op := range s.NewStream(seed, false).Take(n) {
		mix[op.Class]++
	}
	return mix
}

func TestSecondSeedChangesVariantsNotMix(t *testing.T) {
	for _, s := range Specs() {
		if reflect.DeepEqual(take(s, 1, 300), take(s, 2, 300)) {
			t.Errorf("%s: seeds 1 and 2 produced the same request list", s.Name)
		}
		n := 6000
		switch s.Name {
		case ColdSynth:
			n = ColdPool * len(coldClasses)
		case PaperCells:
			n = 4 * len(Cells(false))
		}
		a, b := classMix(s, 1, n), classMix(s, 2, n)
		if len(a) != len(s.Classes) {
			t.Errorf("%s: %d classes issued, spec lists %d", s.Name, len(a), len(s.Classes))
		}
		for _, class := range s.Classes {
			ca, cb := a[class], b[class]
			// Whole cycles and sweeps give identical counts; the sampled
			// mixes agree to within sampling noise.
			tol := 0
			if s.Name == WarmVariants || s.Name == HitReplay {
				tol = 40 + ca/8
			}
			if ca == 0 || cb < ca-tol || cb > ca+tol {
				t.Errorf("%s: class %s issued %d times under seed 1, %d under seed 2", s.Name, class, ca, cb)
			}
		}
	}
}

func TestWhyIsOneRecordedLine(t *testing.T) {
	for _, s := range Specs() {
		if s.Why == "" || len(s.Why) > 200 || strings.ContainsAny(s.Why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, got %d", s.Name, len(s.Why))
		}
	}
}

// Every cold_synth request must be a miss for its whole nocd lifetime: no
// body may repeat within the stream or collide with a warm-up request.
func TestColdPoolNeverRepeats(t *testing.T) {
	s, _ := Lookup(ColdSynth)
	seen := map[string]bool{}
	for _, op := range s.Primes(false) {
		seen[string(op.Body())] = true
	}
	ops := s.NewStream(3, false).Take(1 << 20)
	if want := ColdPool * len(coldClasses); len(ops) != want {
		t.Fatalf("stream holds %d ops, want the whole pool, %d", len(ops), want)
	}
	for _, op := range ops {
		if b := string(op.Body()); seen[b] {
			t.Fatalf("request repeats: %s", b)
		} else {
			seen[b] = true
		}
		if op.Golden == "" {
			t.Fatalf("cold op without a golden key: %s", op.Body())
		}
	}
}

// A hit must send exactly the bytes its prime sent, or the server derives a
// different key and synthesizes.
func TestHitsReplayTheirPrimes(t *testing.T) {
	s, _ := Lookup(HitReplay)
	primes := s.Primes(false)
	if len(primes) != 96 {
		t.Fatalf("%d primes, want 96", len(primes))
	}
	for _, op := range s.NewStream(5, false).Take(3000) {
		if len(op.Refs) == 0 {
			t.Fatalf("%s op without refs", op.Class)
		}
		for _, r := range op.Refs {
			if r < 0 || r >= len(primes) {
				t.Fatalf("%s ref %d out of range", op.Class, r)
			}
		}
		switch op.Class {
		case "hit.get":
			if op.Method != "GET" || op.Body() != nil {
				t.Fatalf("hit.get must be a bodyless GET")
			}
		case "hit.batch":
			if len(op.Refs) != 16 || !bytes.HasPrefix(op.Body(), []byte("[{")) {
				t.Fatalf("hit.batch must carry 16 items")
			}
		default:
			if p := primes[op.Refs[0]]; !bytes.Equal(op.Body(), p.Body()) || op.Class != p.Class {
				t.Fatalf("%s does not replay prime %d", op.Class, op.Refs[0])
			}
		}
	}
}

func TestMiniatureKeepsEveryClass(t *testing.T) {
	for _, s := range Specs() {
		mix := map[string]int{}
		for _, op := range s.NewStream(1, true).Take(400) {
			mix[op.Class]++
		}
		for _, class := range s.Classes {
			// The miniature primes no 64-node designs and issues only its
			// four cheap cold classes.
			if mix[class] == 0 && class != "hit.large" && s.Name != ColdSynth {
				t.Errorf("%s miniature never issues %s", s.Name, class)
			}
		}
	}
}
