package serve

import (
	"container/list"
	"crypto/sha256"
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

// digest is the SHA-256 of an upload's exact bytes, the key under which
// the signature memo remembers the upload's content signature.
type digest [sha256.Size]byte

// sigMemoEntries is how many uploads the signature memo remembers. An
// entry is a 32-byte digest and a 32-byte signature plus its list
// element and map slot: a full memo takes about 0.8 MB of heap.
const sigMemoEntries = 4096

// Cache is a budgeted LRU map, safe for concurrent use. Each value is
// charged size(value) against the budget. Put evicts least-recently used
// entries until the new one fits, and drops a value larger than the
// whole budget, so a zero budget caches nothing (every Get misses). The
// service keeps two: reduced containers by CacheKey, charged their
// bytes, and the signature memo, upload signatures by digest, charged
// one each.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	size    func(V) int64
	order   *list.List // front = most recent; values are *cacheItem[K, V]
	entries map[K]*list.Element

	bytes, count *Gauge
}

type cacheItem[K comparable, V any] struct {
	key K
	val V
}

// NewCache returns a cache bounded to budget, charging each value
// size(value) and mirroring its occupancy into the gauges when non-nil.
func NewCache[K comparable, V any](budget int64, size func(V) int64, bytes, count *Gauge) *Cache[K, V] {
	return &Cache[K, V]{
		budget:  budget,
		size:    size,
		order:   list.New(),
		entries: map[K]*list.Element{},
		bytes:   bytes,
		count:   count,
	}
}

// Get returns the cached value for k, refreshing its recency.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem[K, V]).val, true
}

// Put inserts (or replaces) the value for k, evicting least-recently
// used entries until the budget holds. Values larger than the whole
// budget are not cached.
func (c *Cache[K, V]) Put(k K, v V) {
	size := c.size(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if el, ok := c.entries[k]; ok {
		c.used -= c.size(el.Value.(*cacheItem[K, V]).val)
		c.order.Remove(el)
		delete(c.entries, k)
	}
	for c.used+size > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		item := back.Value.(*cacheItem[K, V])
		c.used -= c.size(item.val)
		c.order.Remove(back)
		delete(c.entries, item.key)
	}
	c.entries[k] = c.order.PushFront(&cacheItem[K, V]{key: k, val: v})
	c.used += size
	c.sync()
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Used returns the budget currently charged.
func (c *Cache[K, V]) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

func (c *Cache[K, V]) sync() {
	if c.bytes != nil {
		c.bytes.Set(c.used)
	}
	if c.count != nil {
		c.count.Set(int64(len(c.entries)))
	}
}
