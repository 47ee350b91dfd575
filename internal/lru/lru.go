// Package lru is a bounded, thread-safe least-recently-used map from
// string keys to values. It is rcserve's result cache (marshaled
// response bytes) and the bound of the experiment layer's front-end memo
// (exp.Frontends).
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU. Values are returned by reference and must never
// be mutated by callers. It is safe for concurrent use.
type Cache[V any] struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recent
	items     map[string]*list.Element
	evictions int64
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache holding at most n entries (at least one).
func New[V any](n int) *Cache[V] {
	return &Cache[V]{max: max(n, 1), ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns key's value and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores val for key, evicting the least recently used entries past
// the bound. The first write wins: if the key is already cached the
// existing value is kept (only refreshed in the LRU order). Two flights
// racing on one key must not be able to swap the value a previous reader
// was handed — rcserve's warm-hit byte-identity contract says every
// response for a key serves the same slice.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key, val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
}

// Len reports the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evicted reports how many entries the bound has evicted.
func (c *Cache[V]) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
