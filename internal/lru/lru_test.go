package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUCacheEvictsOldest(t *testing.T) {
	c := New[[]byte](2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes oldest
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (oldest)")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Error("a should have survived (recently used)")
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Error("c missing")
	}
	if c.Evicted() != 1 || c.Len() != 2 {
		t.Errorf("evictions=%d len=%d, want 1 and 2", c.Evicted(), c.Len())
	}
}

// TestLRUCacheFirstWriteWins: two flights racing on one key must not be
// able to swap the bytes under an earlier reader — the first put pins the
// entry, later puts only refresh recency.
func TestLRUCacheFirstWriteWins(t *testing.T) {
	c := New[[]byte](2)
	c.Put("k", []byte("first"))
	c.Put("k", []byte("second"))
	if v, ok := c.Get("k"); !ok || string(v) != "first" {
		t.Errorf("entry = %q, want the first write to win", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
	// The duplicate put still refreshes LRU order: k survives a new key.
	c.Put("other", []byte("x"))
	c.Put("k", []byte("third"))
	c.Put("newest", []byte("y"))
	if v, ok := c.Get("k"); !ok || string(v) != "first" {
		t.Errorf("after refresh, entry = %q, %v; want first bytes retained", v, ok)
	}
}

func TestLRUCacheConcurrent(t *testing.T) {
	c := New[[]byte](8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := fmt.Sprintf("k%d", (i+j)%16)
				c.Put(k, []byte(k))
				c.Get(k)
			}
		}(i)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("cache exceeded its bound: %d entries", c.Len())
	}
}
