package serve

import (
	"strings"
	"testing"

	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/synth"
)

func TestKeyStableAndWellFormed(t *testing.T) {
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := synth.Options{Seed: 1, Restarts: 2}
	k1 := Key(p, opt)
	k2 := Key(p, opt)
	if k1 != k2 {
		t.Errorf("same input hashed differently: %s vs %s", k1, k2)
	}
	if !strings.HasPrefix(k1, "sha256:") || len(k1) != len("sha256:")+64 {
		t.Errorf("malformed key %q", k1)
	}

	// A regenerated-but-identical pattern must produce the identical key:
	// the hash is content-addressed, not identity-addressed.
	p2, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := Key(p2, opt); got != k1 {
		t.Errorf("regenerated pattern hashed differently: %s vs %s", got, k1)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := synth.Options{Seed: 1, Restarts: 2}
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseKey := Key(p, base)

	// Output-affecting knobs must change the key.
	affecting := map[string]synth.Options{
		"seed":     {Seed: 2, Restarts: 2},
		"restarts": {Seed: 1, Restarts: 3},
		"maxdeg":   {Seed: 1, Restarts: 2, Constraints: synth.Constraints{MaxDegree: 7}},
	}
	for name, opt := range affecting {
		if Key(p, opt) == baseKey {
			t.Errorf("%s change did not change the key", name)
		}
	}

	// Workers and Obs are excluded by the determinism contract: any value
	// produces byte-identical output, so they must NOT fragment the cache.
	for name, opt := range map[string]synth.Options{
		"workers": {Seed: 1, Restarts: 2, Workers: 7},
		"obs":     {Seed: 1, Restarts: 2, Obs: obs.NewCollector()},
	} {
		if got := Key(p, opt); got != baseKey {
			t.Errorf("%s fragmented the cache: %s vs %s", name, got, baseKey)
		}
	}

	// A different pattern must change the key.
	fft, err := nas.Generate("FFT", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if Key(fft, base) == baseKey {
		t.Error("different pattern produced the same key")
	}
}

func TestOptionsFingerprintNormalizes(t *testing.T) {
	// The zero Options and an explicitly-defaulted Options are the same
	// request; their fingerprints must agree.
	zero := OptionsFingerprint(synth.Options{})
	explicit := OptionsFingerprint(synth.Options{}.Normalized())
	if zero != explicit {
		t.Errorf("zero and normalized fingerprints differ:\n%s\n%s", zero, explicit)
	}
	if !strings.Contains(zero, "seed=") || !strings.Contains(zero, "maxdeg=") {
		t.Errorf("fingerprint missing fields: %s", zero)
	}
}

// TestOptionsFingerprintVariants pins each Variant's key text to what the
// per-ablation fields it replaced rendered, so no stored key changes.
func TestOptionsFingerprintVariants(t *testing.T) {
	const full = "maxdeg=5 maxprocs=4 seed=0 restarts=4 anneal=0/0.9/32 nobestroute=false noglobalrefine=false greedycolor=false maxrounds=16 seedfp=none"
	for v, want := range map[synth.Variant]string{
		synth.Full:           full,
		synth.NoBestRoute:    strings.Replace(full, "nobestroute=false", "nobestroute=true", 1),
		synth.NoGlobalRefine: strings.Replace(full, "noglobalrefine=false", "noglobalrefine=true", 1),
		synth.Annealed:       strings.Replace(full, "anneal=0/0.9/32", "anneal=262144/0.85/24", 1),
	} {
		if got := OptionsFingerprint(synth.Options{Variant: v}); got != want {
			t.Errorf("variant %d:\n got %s\nwant %s", v, got, want)
		}
	}
}
