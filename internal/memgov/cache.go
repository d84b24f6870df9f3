package memgov

import (
	"errors"
	"slices"
	"sync"
)

// cacheCap is the entry count at which a Cache clears itself. Warm serving
// uses one or two keys per cache; a sweep over many keys must not grow a
// model without bound, and dropping everything is cheaper than keeping an
// LRU order for so few entries.
const cacheCap = 8

// errFillPanicked is what a Fill's waiters receive when the fill they
// joined panicked instead of returning.
var errFillPanicked = errors.New("memgov: cache fill panicked")

// Cache is a byte-weighted memo of values that are expensive to build and
// cheap to rebuild, settled with a governor under one class:
//
//   - Fill is single-flight per key: concurrent fills of one key run fill
//     once and share its result; fills of different keys run in parallel.
//     A failed fill caches nothing.
//   - Clear never waits on an in-flight fill. A fill that a Clear
//     overtook still returns its value to its callers but does not insert
//     it, so a release racing a build cannot resurrect the released bytes.
//   - Bytes are settled with the governor after the cache's own lock is
//     released, because Grow may run evictors that Clear this very cache.
//     Clear only ever shrinks, so it is safe under any caller lock.
//   - Entries sit in an array of exactly their number, copied on each
//     insert (there are at most cacheCap), so the cache holds no spare
//     slot and a weight may count its entry's slot,
//     unsafe.Sizeof(k)+unsafe.Sizeof(v), exactly. Clear frees the array.
//
// Values must be immutable once filled: Get and Fill hand out the cached
// value itself, and callers may keep using it after a Clear.
type Cache[K comparable, V any] struct {
	class  string
	weight func(K, V) int64

	mu      sync.Mutex
	acct    *account
	entries []entry[K, V]
	flight  []*fillCall[K, V]
	gen     uint64 // bumped on every mutation; orders the settles
	bytes   int64  // Σ weight(k, v) over entries
}

type entry[K comparable, V any] struct {
	k K
	v V
}

type fillCall[K comparable, V any] struct {
	k       K
	done    chan struct{}
	v       V
	err     error
	cleared bool // a Clear overtook the fill; guarded by the cache's mu
}

// NewCache returns an empty cache whose entries weigh weight(k, v) bytes,
// settled with g under class. g may be nil (see Govern).
func NewCache[K comparable, V any](g *Governor, class string, weight func(K, V) int64) *Cache[K, V] {
	return &Cache[K, V]{class: class, weight: weight, acct: g.account(class)}
}

// Govern settles the cache's bytes with g from now on, including those
// already resident. Only the first non-nil governor takes: replacing the
// account would strand its settled balance. Must not be called while
// holding a lock g's evictors acquire.
func (c *Cache[K, V]) Govern(g *Governor) {
	if g == nil {
		return
	}
	c.mu.Lock()
	if c.acct != nil {
		c.mu.Unlock()
		return
	}
	c.acct = g.account(c.class)
	c.settleUnlock()
}

// Get returns the cached value for k.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	v, ok := c.lookup(k)
	c.mu.Unlock()
	return v, ok
}

// lookup returns the cached value for k. Callers hold c.mu.
func (c *Cache[K, V]) lookup(k K) (V, bool) {
	for _, e := range c.entries {
		if e.k == k {
			return e.v, true
		}
	}
	var zero V
	return zero, false
}

// Fill returns the cached value for k, or runs fill to build it, caches
// it (unless fill failed or a Clear overtook it) and returns it.
func (c *Cache[K, V]) Fill(k K, fill func() (V, error)) (V, error) {
	c.mu.Lock()
	if v, ok := c.lookup(k); ok {
		c.mu.Unlock()
		return v, nil
	}
	for _, f := range c.flight {
		if f.k == k {
			c.mu.Unlock()
			<-f.done
			return f.v, f.err
		}
	}
	f := &fillCall[K, V]{k: k, done: make(chan struct{}), err: errFillPanicked}
	c.flight = append(c.flight, f)
	c.mu.Unlock()
	defer c.land(f)
	f.v, f.err = fill()
	return f.v, f.err
}

// land ends f's flight: it wakes the waiters and inserts the value.
func (c *Cache[K, V]) land(f *fillCall[K, V]) {
	c.mu.Lock()
	c.flight = slices.DeleteFunc(c.flight, func(g *fillCall[K, V]) bool { return g == f })
	if len(c.flight) == 0 {
		c.flight = nil
	}
	close(f.done)
	if f.err != nil || f.cleared {
		c.mu.Unlock()
		return
	}
	c.insert(f.k, f.v)
}

// Put caches v under k unless k is already cached.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	c.insert(k, v)
}

// insert caches v under k unless k is already cached, and releases c.mu.
func (c *Cache[K, V]) insert(k K, v V) {
	if _, ok := c.lookup(k); ok {
		c.mu.Unlock()
		return
	}
	if len(c.entries) >= cacheCap {
		c.entries, c.bytes = nil, 0
	}
	grown := make([]entry[K, V], len(c.entries)+1)
	copy(grown, c.entries)
	grown[len(c.entries)] = entry[K, V]{k, v}
	c.entries = grown
	c.bytes += c.weight(k, v)
	c.gen++
	c.settleUnlock()
}

// Clear drops every entry and settles the cache to zero bytes. Fills in
// flight finish for their callers but are not inserted.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	c.entries = nil
	for _, f := range c.flight {
		f.cleared = true
	}
	c.bytes = 0
	c.gen++
	c.settleUnlock()
}

// Bytes returns the summed weight of the cached entries.
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// settleUnlock releases c.mu and then settles the total it held.
func (c *Cache[K, V]) settleUnlock() {
	a, gen, b := c.acct, c.gen, c.bytes
	c.mu.Unlock()
	a.settle(gen, b)
}
