package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Key computes the content-addressed cache key for one design request: the
// SHA-256 of the pattern's canonical noctrace v1 encoding concatenated (NUL-
// separated) with the fingerprint of the output-affecting synthesis options.
// Patterns arriving as inline traces are decoded before hashing, so comment
// lines, blank lines, and whitespace variations never split the cache;
// reordering message lines does produce a distinct key, which costs at most
// a duplicate synthesis, never a wrong answer.
//
// Extra fingerprint components (NUL-separated, in order) extend the key for
// request families beyond flat synthesis — a hierarchical request appends
// its canonical cluster spec and per-level knobs, so flat keys are unchanged
// and differently spelled but equivalent cluster specs share an entry.
func Key(p *model.Pattern, opt synth.Options, extra ...string) string {
	return finishKey(traceHash(p), opt, extra...)
}

// traceHash returns a SHA-256 fed the pattern's canonical trace bytes: the
// prefix of Key that depends on the pattern alone.
func traceHash(p *model.Pattern) hash.Hash {
	h := sha256.New()
	// Encode writes to an in-memory hash and cannot fail.
	_ = trace.Encode(h, p)
	return h
}

// finishKey completes a key from h, a traceHash — fresh, or restored from
// the key memo.
func finishKey(h hash.Hash, opt synth.Options, extra ...string) string {
	io.WriteString(h, "\x00")
	io.WriteString(h, OptionsFingerprint(opt))
	for _, e := range extra {
		io.WriteString(h, "\x00")
		io.WriteString(h, e)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// OptionsFingerprint renders every synth.Options knob that can change the
// synthesized bytes. Workers is deliberately absent — the determinism
// contract guarantees byte-identical designs for every worker count — and
// Obs is telemetry, so requests differing only in those collapse onto one
// cache entry. A key names the request, not the seed: the server keys a
// request before it injects a warm-start SeedDesign, so a seeded response is
// stored under the cold request's key (see the warm-index determinism note
// in warm.go), and "seedfp=none" is the text every key has always carried.
// Fields are spelled out (not reflected) so adding an option later forces a
// conscious decision about whether it belongs in the key. "maxrounds=16" is
// the text a former option's only value ever wrote, "greedycolor=false" the
// text of a former DSATUR-only colouring ablation, now the same run as Full,
// and the anneal schedule and two booleans are the text the former
// per-ablation fields wrote for each Variant; they stay so every stored key
// stays valid.
func OptionsFingerprint(opt synth.Options) string {
	o := opt.Normalized()
	anneal := "0/0.9/32"
	if o.Variant == synth.Annealed {
		anneal = "262144/0.85/24"
	}
	return fmt.Sprintf("maxdeg=%d maxprocs=%d seed=%d restarts=%d anneal=%s nobestroute=%t noglobalrefine=%t greedycolor=false maxrounds=16 seedfp=none",
		o.MaxDegree, o.MaxProcsPerSwitch, o.Seed, o.Restarts, anneal,
		o.Variant == synth.NoBestRoute, o.Variant == synth.NoGlobalRefine)
}
