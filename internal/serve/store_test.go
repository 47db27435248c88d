package serve

import (
	"fmt"
	"testing"
)

func ent(key string) *Entry { return &Entry{Key: key, Body: []byte("body:" + key)} }

func TestMemStoreEvictsLeastRecent(t *testing.T) {
	c := newMemStore(2)
	c.Put(ent("a"))
	c.Put(ent("b"))
	if _, ok := c.Get("a"); !ok { // refresh a: b is now least recent
		t.Fatal("a missing before capacity reached")
	}
	c.Put(ent("c")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order not honored")
	}
	for _, k := range []string{"a", "c"} {
		e, ok := c.Get(k)
		if !ok {
			t.Errorf("%s missing", k)
			continue
		}
		if string(e.Body) != "body:"+k {
			t.Errorf("%s holds %q", k, e.Body)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestMemStoreReplaceSameKey(t *testing.T) {
	c := newMemStore(2)
	c.Put(ent("a"))
	c.Put(&Entry{Key: "a", Body: []byte("updated")})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (same key must not duplicate)", c.Len())
	}
	e, _ := c.Get("a")
	if string(e.Body) != "updated" {
		t.Errorf("a holds %q, want updated", e.Body)
	}
}

func TestMemStoreDisabled(t *testing.T) {
	c := newMemStore(-1)
	c.Put(ent("a"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled store stored an entry")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

// TestMemStorePutReturns pins the Put contract secondary indexes rely on:
// stored=false only when the backend is disabled, refreshes evict nothing,
// and overflow reports exactly the evicted keys.
func TestMemStorePutReturns(t *testing.T) {
	c := newMemStore(2)
	if evicted, stored := c.Put(ent("a")); !stored || len(evicted) != 0 {
		t.Errorf("first Put: stored=%v evicted=%v, want true/none", stored, evicted)
	}
	if evicted, stored := c.Put(ent("a")); !stored || len(evicted) != 0 {
		t.Errorf("refresh Put: stored=%v evicted=%v, want true/none", stored, evicted)
	}
	c.Put(ent("b"))
	if evicted, stored := c.Put(ent("c")); !stored || len(evicted) != 1 || evicted[0] != "a" {
		t.Errorf("overflow Put: stored=%v evicted=%v, want true/[a]", stored, evicted)
	}
	d := newMemStore(0)
	if evicted, stored := d.Put(ent("x")); stored || evicted != nil {
		t.Errorf("disabled Put: stored=%v evicted=%v, want false/nil", stored, evicted)
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	c := newMemStore(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%16)
				c.Put(ent(k))
				c.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := c.Len(); n > 8 {
		t.Errorf("Len = %d, exceeds capacity 8", n)
	}
	close(done)
}

// Len returns the number of stored entries.
func (c *memStore) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
