package serve

import (
	"container/list"
	"sync"

	"repro/internal/trace"
)

// Entry is one stored design response: the exact bytes served for the key,
// replayed verbatim on every hit so repeated requests are byte-identical.
// Body is the indented /v1/design body; Row is the same response compact,
// the form a /v1/designs row embeds (json.Compact(Body) == Row), so neither
// endpoint re-renders JSON on a hit. Warm records how the synthesis started
// ("cold" or "seeded"; empty when the warm-start layer is disabled) and is
// surfaced as the X-Nocd-Warm header — like the cache disposition, it is
// deliberately not part of the body. Fp is the structural fingerprint of
// the request's trace (nil when warm starts are disabled); the disk backend
// persists it so the warm index can be rebuilt on restart without
// re-deriving the trace.
type Entry struct {
	Key  string
	Body []byte
	Row  []byte
	Warm string
	Fp   *trace.Fingerprint
}

// memStore is the bounded most-recently-used in-memory backend of the
// layered design cache: the server consults it before the optional
// persistent diskStore on Get and writes through both on Put. Both Get and
// Put refresh recency; when Put pushes the store past capacity the least
// recently used entries are evicted, and Put returns their keys so the
// warm-start fingerprint index stays in lockstep with the store's contents
// (diskStore.Put never evicts, so it reports only whether it stored). Safe
// for concurrent use.
type memStore struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *Entry
	m   map[string]*list.Element
}

func newMemStore(capacity int) *memStore {
	return &memStore{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element, capacity),
	}
}

// Get returns the entry for key, refreshing its recency.
func (c *memStore) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*Entry), true
}

// Peek returns the entry for key without refreshing its recency.
func (c *memStore) Peek(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		return el.Value.(*Entry), true
	}
	return nil, false
}

// Put inserts (or refreshes) an entry, evicting from the cold end to stay
// within capacity. A non-positive capacity disables the backend entirely.
func (c *memStore) Put(e *Entry) (evicted []string, stored bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.Key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return nil, true
	}
	c.m[e.Key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		k := cold.Value.(*Entry).Key
		delete(c.m, k)
		evicted = append(evicted, k)
	}
	return evicted, true
}
