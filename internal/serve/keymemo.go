package serve

import (
	"crypto/sha256"
	"encoding"
	"hash"
	"sync"
)

// keyMemoCap bounds the key memo. An entry is an identity (64 B: a
// workload, or a 32-byte digest of a trace's text) plus a marshalled SHA-256
// state (108 B), so a full memo is about 200 KB.
const keyMemoCap = 1024

// memoID is a request's pattern identity in the key memo: the workload of a
// by-name request, or the SHA-256 of an inline trace's raw text — the other
// half zero. Only the digest is kept, never the text.
type memoID struct {
	workload workloadID
	trace    [sha256.Size]byte
}

// keyMemo maps a request's pattern identity to the SHA-256 state after the
// pattern's canonical trace bytes — the expensive prefix of Key. The paper's
// premise is that a well-behaved pattern is fixed and known in advance; the
// memo is that premise applied to the server's own hot path: a repeated
// workload or trace reaches its key without the pattern being built or
// decoded, encoded or hashed again. The state is mid-stream, so one entry
// serves every seed, option and hier variant of the pattern and the finished
// key is byte for byte what Key computes.
//
// An inline trace is identified by its raw text, so a respelling — other
// comments or blank lines — takes a second entry but, hashing the same
// canonical bytes, reaches the same key. A workload's identity leaves the
// generator configs out because a memo belongs to one Server, whose Config
// is fixed at New. Capacity is constant and eviction is first-in first-out
// over a ring of identities: deterministic, and an identity evicted early
// costs one rebuild, never a wrong key.
type keyMemo struct {
	mu   sync.Mutex
	m    map[memoID][]byte
	ring [keyMemoCap]memoID // insertion order; next is the oldest once full
	next int
}

func newKeyMemo() *keyMemo {
	return &keyMemo{m: make(map[memoID][]byte, keyMemoCap)}
}

// restore returns a hash positioned just past id's trace bytes.
func (km *keyMemo) restore(id memoID) (hash.Hash, bool) {
	km.mu.Lock()
	state, ok := km.m[id]
	km.mu.Unlock()
	if !ok {
		return nil, false
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
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
	if _, ok := km.m[id]; !ok {
		if len(km.m) == keyMemoCap {
			delete(km.m, km.ring[km.next])
		}
		km.ring[km.next] = id
		km.next = (km.next + 1) % keyMemoCap
	}
	km.m[id] = state
}
