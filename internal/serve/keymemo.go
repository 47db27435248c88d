package serve

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"

	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/trace"
)

// keyMemoCap bounds the key memo's identities. An entry is an identity
// (64 B: a workload, or a 32-byte digest of a trace's text) plus a
// marshalled SHA-256 state (108 B), so a full memo without models is about
// 200 KB.
const keyMemoCap = 1024

// modelBudget bounds the summed weight (modelCore.weight, about its bytes)
// of the model cores the key memo retains. A core of the ledger's patterns
// weighs 5 to 20 KB and FFT/64's 230 KB, so the budget holds hundreds of
// them; a core heavier than the whole budget is not kept.
const modelBudget = 16 << 20

// memoID is a request's pattern identity in the key memo: the workload of a
// by-name request, or the SHA-256 of an inline trace's raw text — the other
// half zero. Only the digest is kept, never the text.
type memoID struct {
	workload workloadID
	trace    [sha256.Size]byte
}

// patternModel is the flat synthesis input derived from one pattern: the
// summary every response's report carries, and the core. Like the key state
// it depends on the pattern alone, never on the seed, the budgets or the
// restarts, and nothing writes it once derived but the core's refs.
type patternModel struct {
	core    *modelCore
	summary trace.Stats
}

// modelCore is the part of a pattern's model that reads nothing of the
// pattern but its name, its processor count and its maximum clique set:
// its synth.Model (the search kernel) and its warm-start fingerprint.
// Patterns alike in those three present the same synthesis problem — the
// iteration counts and byte scales of one application, as a rule — so the
// memo entries of all of them share one core.
type modelCore struct {
	digest [sha256.Size]byte // coreDigest of the name, processor count and cliques
	synth  *synth.Model
	fp     *trace.Fingerprint // nil on a server without warm starts
	weight int                // the bytes it holds, about: what modelBudget counts
	refs   int                // memo entries holding it; guarded by keyMemo.mu
}

// coreDigest is the SHA-256 of a length-prefixed encoding of what a core
// reads of its pattern.
func coreDigest(name string, procs int, cliques []model.Clique) [sha256.Size]byte {
	b := binary.AppendUvarint(nil, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, uint64(procs))
	b = binary.AppendUvarint(b, uint64(len(cliques)))
	for _, c := range cliques {
		b = binary.AppendUvarint(b, uint64(len(c)))
		for _, f := range c {
			b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(f.Src)), uint64(f.Dst))
		}
	}
	return sha256.Sum256(b)
}

// derive derives pat's model: its contention periods and maximum cliques
// once, then everything a flat miss reads of them, the core taken from a
// pattern alike when the memo holds one. fingerprint is false on a server
// without warm starts, which never reads one.
func (km *keyMemo) derive(pat *model.Pattern, fingerprint bool) (*patternModel, error) {
	periods := model.ContentionPeriods(pat)
	cliques := model.MaxCliques(periods)
	pm := &patternModel{summary: trace.SummarizeCliques(pat, periods, cliques)}
	digest := coreDigest(pat.Name, pat.Procs, cliques)
	km.mu.Lock()
	pm.core = km.cores[digest]
	km.mu.Unlock()
	if pm.core != nil {
		return pm, nil
	}
	sm, err := synth.NewModel(pat, cliques)
	if err != nil {
		return nil, err
	}
	pm.core = &modelCore{digest: digest, synth: sm, weight: sm.Footprint()}
	if fingerprint {
		pm.core.fp = trace.FingerprintCliques(pat.Procs, cliques)
		pm.core.weight += 8 * (len(pm.core.fp.Segments) + len(pm.core.fp.CliqueSigs))
	}
	return pm, nil
}

// memoEntry is what the key memo holds for one identity: the SHA-256 state
// after the pattern's canonical trace bytes, and the pattern's model once a
// flight leader has derived it.
type memoEntry struct {
	state []byte
	model *patternModel
}

// keyMemo maps a request's pattern identity to the SHA-256 state after the
// pattern's canonical trace bytes — the expensive prefix of Key — and to the
// pattern's model. The paper's premise is that a well-behaved pattern is
// fixed and known in advance; the memo is that premise applied to the
// server's own hot path: a repeated workload or trace reaches its key
// without the pattern being built or decoded, encoded or hashed again, and
// a flat miss on it reaches its synthesis without the contention model, the
// fingerprint, the summary or the search kernel being derived again. The
// state is mid-stream, so one entry serves every seed, option and hier
// variant of the pattern and the finished key is byte for byte what Key
// computes; the model serves them all too, since none of it reads the
// options, and its core serves every pattern alike (modelCore).
//
// An inline trace is identified by its raw text, so a respelling — other
// comments or blank lines — takes a second entry but, hashing the same
// canonical bytes, reaches the same key. A workload's identity leaves the
// generator configs out because a memo belongs to one Server, whose Config
// is fixed at New. The memo never holds a message. Its bounds are constant:
// keyMemoCap identities, and modelBudget of core weight. Eviction is first
// in, first out over a ring of identities — the oldest goes when an
// identity arrives at capacity, and as many of the oldest as it takes when
// a new core arrives over the budget; a core goes with the last entry
// holding it — deterministic, and an identity evicted early costs one
// rebuild, never a wrong key or design.
type keyMemo struct {
	mu     sync.Mutex
	m      map[memoID]*memoEntry
	ring   [keyMemoCap]memoID // insertion order: len(m) identities from head, oldest first
	head   int
	cores  map[[sha256.Size]byte]*modelCore // the entries' model cores, by digest
	weight int                              // the cores' summed weight
	budget int                              // modelBudget; a test may lower it
}

func newKeyMemo() *keyMemo {
	return &keyMemo{m: make(map[memoID]*memoEntry, keyMemoCap), cores: make(map[[sha256.Size]byte]*modelCore), budget: modelBudget}
}

// restore returns a hash positioned just past id's trace bytes.
func (km *keyMemo) restore(id memoID) (hash.Hash, bool) {
	km.mu.Lock()
	e, ok := km.m[id]
	km.mu.Unlock()
	if !ok {
		return nil, false
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(e.state); err != nil {
		return nil, false
	}
	return h, true
}

// save records h — positioned just past id's trace bytes — for later
// requests, evicting the oldest identity when the memo is full.
func (km *keyMemo) save(id memoID, h hash.Hash) {
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return
	}
	km.mu.Lock()
	defer km.mu.Unlock()
	if e, ok := km.m[id]; ok {
		e.state = state
		return
	}
	if len(km.m) == keyMemoCap {
		km.evictOldest()
	}
	km.ring[(km.head+len(km.m))%keyMemoCap] = id
	km.m[id] = &memoEntry{state: state}
}

// model returns id's model, or nil if no leader has derived it since id
// entered the memo.
func (km *keyMemo) model(id memoID) *patternModel {
	km.mu.Lock()
	defer km.mu.Unlock()
	if e, ok := km.m[id]; ok {
		return e.model
	}
	return nil
}

// forgetModels, set only by tests, keeps every model out of the memo, so
// each flight leader derives its pattern's model as if the memo had been
// cleared just before it: the reference the memoised miss is measured
// against.
var forgetModels bool

// keep gives id's entry pm, the first model derived for it, with the core
// the memo already holds for a pattern alike if there is one. A new core
// evicts the oldest identities while the retained weight would pass the
// budget. A core over the whole budget is not kept, nor a model whose
// identity left the memo (or would have to leave it to make room) since its
// leader looked: the next miss derives it again.
func (km *keyMemo) keep(id memoID, pm *patternModel) {
	if forgetModels || pm.core.weight > km.budget {
		return
	}
	km.mu.Lock()
	defer km.mu.Unlock()
	e, ok := km.m[id]
	if !ok || e.model != nil {
		return
	}
	c, shared := km.cores[pm.core.digest]
	if !shared {
		c = pm.core
		for km.weight+c.weight > km.budget {
			if km.ring[km.head] == id {
				return
			}
			km.evictOldest()
		}
		km.cores[c.digest] = c
		km.weight += c.weight
	}
	c.refs++
	e.model = &patternModel{core: c, summary: pm.summary}
}

// evictOldest drops the oldest identity, and its model with it: the model's
// core too, if no other entry holds it. The memo must hold an identity.
func (km *keyMemo) evictOldest() {
	id := km.ring[km.head]
	if pm := km.m[id].model; pm != nil {
		c := pm.core
		if c.refs--; c.refs == 0 {
			delete(km.cores, c.digest)
			km.weight -= c.weight
		}
	}
	delete(km.m, id)
	km.ring[km.head] = memoID{}
	km.head = (km.head + 1) % keyMemoCap
}
