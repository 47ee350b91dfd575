package serve

// Tests of the daemon's LRU result cache. Request coalescing is tested
// with its mechanism in internal/flight.

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUCacheEvictsOldest(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // refresh a: b becomes oldest
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (oldest)")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Error("a should have survived (recently used)")
	}
	if v, ok := c.get("c"); !ok || string(v) != "C" {
		t.Error("c missing")
	}
	if c.evicted() != 1 || c.len() != 2 {
		t.Errorf("evictions=%d len=%d, want 1 and 2", c.evicted(), c.len())
	}
}

// TestLRUCacheFirstWriteWins: two flights racing on one key must not be
// able to swap the bytes under an earlier reader — the first put pins the
// entry, later puts only refresh recency.
func TestLRUCacheFirstWriteWins(t *testing.T) {
	c := newLRUCache(2)
	c.put("k", []byte("first"))
	c.put("k", []byte("second"))
	if v, ok := c.get("k"); !ok || string(v) != "first" {
		t.Errorf("entry = %q, want the first write to win", v)
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
	// The duplicate put still refreshes LRU order: k survives a new key.
	c.put("other", []byte("x"))
	c.put("k", []byte("third"))
	c.put("newest", []byte("y"))
	if v, ok := c.get("k"); !ok || string(v) != "first" {
		t.Errorf("after refresh, entry = %q, %v; want first bytes retained", v, ok)
	}
}

func TestLRUCacheConcurrent(t *testing.T) {
	c := newLRUCache(8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := fmt.Sprintf("k%d", (i+j)%16)
				c.put(k, []byte(k))
				c.get(k)
			}
		}(i)
	}
	wg.Wait()
	if c.len() > 8 {
		t.Errorf("cache exceeded its bound: %d entries", c.len())
	}
}
