package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// CacheKey addresses one cached reduction: the upload's content
// signature plus every parameter that shapes the output bytes. Two
// uploads of the same trace — even in different container versions —
// share a signature, so a v2 re-upload hits the entry a v1 upload
// populated, and the reply is byte-identical either way.
type CacheKey struct {
	Sig       trace.Signature
	Method    string
	Threshold float64
	Format    int
}

// CacheEntry is one cached reduction: the exact reduced-container
// bytes previously served plus the run's stats (replayed into response
// headers on a hit). The cache charges cap(Body), every byte the entry
// holds, so Body should be allocated at its exact size.
type CacheEntry struct {
	Body  []byte
	Stats core.StreamStats
}

// size is what the entry is charged: its body's whole backing array.
func (e *CacheEntry) size() int64 { return int64(cap(e.Body)) }

// Cache is a byte-budgeted LRU over reduced containers. A zero budget
// disables caching (every Get misses, Put drops).
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	order   *list.List // front = most recent; values are *cacheItem
	entries map[CacheKey]*list.Element

	bytes, count *Gauge
}

type cacheItem struct {
	key CacheKey
	ent *CacheEntry
}

// NewCache returns a cache bounded to budget bytes of cached container
// bodies, mirroring its occupancy into the gauges when non-nil.
func NewCache(budget int64, bytes, count *Gauge) *Cache {
	return &Cache{
		budget:  budget,
		order:   list.New(),
		entries: map[CacheKey]*list.Element{},
		bytes:   bytes,
		count:   count,
	}
}

// Get returns the cached entry for k, refreshing its recency.
func (c *Cache) Get(k CacheKey) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).ent, true
}

// Put inserts (or replaces) the entry for k, evicting least-recently
// used entries until the byte budget holds. Entries larger than the
// whole budget are not cached.
func (c *Cache) Put(k CacheKey, ent *CacheEntry) {
	size := ent.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if el, ok := c.entries[k]; ok {
		c.used -= el.Value.(*cacheItem).ent.size()
		c.order.Remove(el)
		delete(c.entries, k)
	}
	for c.used+size > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		item := back.Value.(*cacheItem)
		c.used -= item.ent.size()
		c.order.Remove(back)
		delete(c.entries, item.key)
	}
	c.entries[k] = c.order.PushFront(&cacheItem{key: k, ent: ent})
	c.used += size
	c.sync()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Used returns the cached body bytes currently held, counted by
// capacity.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

func (c *Cache) sync() {
	if c.bytes != nil {
		c.bytes.Set(c.used)
	}
	if c.count != nil {
		c.count.Set(int64(len(c.entries)))
	}
}
