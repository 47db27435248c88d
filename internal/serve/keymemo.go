package serve

import (
	"crypto/sha256"
	"encoding"
	"hash"
	"sync"
)

// keyMemoCap bounds the key memo. An entry is an identity (~48 B) plus a
// marshalled SHA-256 state (108 B), so a full memo is about 200 KB.
const keyMemoCap = 1024

// keyMemo maps a by-name request's workload identity to the SHA-256 state
// after the workload's canonical trace bytes — the expensive prefix of Key.
// The paper's premise is that a well-behaved pattern is fixed and known in
// advance; the memo is that premise applied to the server's own hot path: a
// repeated workload reaches its key without the pattern being built,
// encoded or hashed again. The state is mid-stream, so one entry serves
// every seed, option and hier variant of the workload and the finished key
// is byte for byte what Key computes.
//
// The identity leaves the generator configs out because a memo belongs to
// one Server, whose Config is fixed at New. Capacity is constant and
// eviction is first-in first-out over a ring of identities: deterministic,
// and a workload evicted early costs one regeneration, never a wrong key.
type keyMemo struct {
	mu   sync.Mutex
	m    map[workloadID][]byte
	ring [keyMemoCap]workloadID // insertion order; next is the oldest once full
	next int
}

func newKeyMemo() *keyMemo {
	return &keyMemo{m: make(map[workloadID][]byte, keyMemoCap)}
}

// restore returns a hash positioned just past id's trace bytes.
func (km *keyMemo) restore(id workloadID) (hash.Hash, bool) {
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
func (km *keyMemo) save(id workloadID, h hash.Hash) {
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
