// Package lru is the one bounded per-key cache in the tree: the
// runtime's content and decoded-code registries, the scheduler's
// per-image placement telemetry and the migrating placer's flip state
// all keep their entries in a Cache.
package lru

import (
	"container/list"
	"iter"
)

// Cache maps keys to at most Cap values, the least recently used
// evicted first. Get and Put make a key the most recently used; Peek
// and All leave recency alone. The zero Cache is empty, and its owner
// sets Cap before the first Put. A Cache is not safe for concurrent
// use: its owner synchronizes it.
type Cache[K comparable, V any] struct {
	Cap   int
	byKey map[K]*list.Element // Value: *entry[K, V]
	order list.List           // front = most recently used
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Get returns key's value, made the most recently used.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	if el := c.byKey[key]; el != nil {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	return v, false
}

// Peek returns key's value without touching its recency.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	if el := c.byKey[key]; el != nil {
		return el.Value.(*entry[K, V]).val, true
	}
	return v, false
}

// Put makes v key's value, the most recently used, and returns the
// value evicted past Cap, if any.
func (c *Cache[K, V]) Put(key K, v V) (old V, evicted bool) {
	if el := c.byKey[key]; el != nil {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return old, false
	}
	if c.byKey == nil {
		c.byKey = make(map[K]*list.Element)
	}
	c.byKey[key] = c.order.PushFront(&entry[K, V]{key, v})
	if c.order.Len() <= c.Cap {
		return old, false
	}
	e := c.order.Remove(c.order.Back()).(*entry[K, V])
	delete(c.byKey, e.key)
	return e.val, true
}

// Len is the number of entries held.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// All yields every entry, the most recently used first. The cache must
// not change while it is iterated.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for el := c.order.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*entry[K, V]); !yield(e.key, e.val) {
				return
			}
		}
	}
}
