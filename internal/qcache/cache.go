package qcache

import (
	"sort"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// Cache is the weak-currency cache of Section 3.3, shared by the live
// client and the simulator: per object a value, the cycle it was cached
// in and the control information retained to validate it, served while
// the entry is within its currency bound. Eviction is
// least-recently-cached. With a Store attached every mutation reaches
// the store's inventory, which tracks the in-memory one entry for entry;
// the store logs them behind, at every Expire. A snapshot handed to
// Put is never modified and is returned by Get as the same interface
// value, so a validator may retain it and a hit allocates nothing. Not
// safe for concurrent use.
type Cache struct {
	max        int
	currencyOf func(obj int) cmatrix.Cycle
	store      *Store
	onStoreErr func()

	entries map[int]*cacheEntry
	// order is the sentinel of the ring of entries in caching order:
	// order.next is the oldest entry, order.prev the newest.
	order cacheEntry
	// spare chains dropped entries (through next) for the next Put to
	// reuse: a cache in steady state allocates nothing.
	spare *cacheEntry
}

type cacheEntry struct {
	obj        int
	value      []byte
	cycle      cmatrix.Cycle
	snap       protocol.Snapshot
	prev, next *cacheEntry
}

// Init configures an empty cache: at most max entries (0 = unlimited),
// currencyOf(obj) the bound T in cycles an entry of obj may be served
// for, store the optional persistent tier, and onStoreErr called once
// per record the store refused, at the flush that failed to log it (the
// in-memory cache stays authoritative). It must be called once, before
// any other method.
func (c *Cache) Init(max int, currencyOf func(obj int) cmatrix.Cycle, store *Store, onStoreErr func()) {
	*c = Cache{max: max, currencyOf: currencyOf, store: store, onStoreErr: onStoreErr, entries: map[int]*cacheEntry{}}
	c.order.prev, c.order.next = &c.order, &c.order
}

// Recover seeds the cache from the store's recovered inventory without
// writing it back, and reports how many entries it holds afterwards.
// A stored column, F-Matrix column or vector alike, comes back as the
// ColumnSnapshot of its object: Col[i] guards the object against a
// prior read of i either way. Seeding runs in ascending (cycle, object)
// order, so an inventory larger than the size cap keeps its most
// recently cached entries — the same ones on every open — and the
// losers leave the store as evictions. Call Expire with the first cycle
// heard before serving: seeded entries are not checked for currency.
func (c *Cache) Recover() int {
	inv := c.store.Inventory()
	objs := make([]int, 0, len(inv))
	for obj := range inv {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(a, b int) bool {
		if ca, cb := inv[objs[a]].Cycle, inv[objs[b]].Cycle; ca != cb {
			return ca < cb
		}
		return objs[a] < objs[b]
	})
	for _, obj := range objs {
		e := inv[obj]
		if len(e.Col) == 0 {
			c.unpersist(obj) // nothing to validate it with
			continue
		}
		c.put(obj, e.Value, e.Cycle, protocol.ColumnSnapshot{Obj: obj, Col: e.Col}, false)
	}
	return len(c.entries)
}

// current is the currency test: an entry of obj cached in cycle may be
// served at cycle now while it is at most currencyOf(obj) cycles old —
// under a non-positive bound, at most for the rest of the cycle it was
// cached in. An entry cached "later" than now is from an incomparable
// epoch (the server restarted) and is never current.
func (c *Cache) current(obj int, cycle, now cmatrix.Cycle) bool {
	return cycle <= now && now-cycle <= c.currencyOf(obj)
}

// Get returns the entry for obj if it is current at cycle now. An entry
// that is not is dropped on the spot — the paper's purely local
// invalidation — so a bound lowered mid-cycle takes effect at the very
// next read rather than at the next cycle boundary. The returned value
// slice is the cache's own; callers must not modify it.
func (c *Cache) Get(obj int, now cmatrix.Cycle) (value []byte, cycle cmatrix.Cycle, snap protocol.Snapshot, ok bool) {
	e, ok := c.entries[obj]
	if !ok {
		return nil, 0, nil, false
	}
	if !c.current(obj, e.cycle, now) {
		c.drop(e)
		return nil, 0, nil, false
	}
	return e.value, e.cycle, e.snap, true
}

// Put caches obj as read in cycle with the control information snap,
// making it the most recently cached entry; at the size cap the oldest
// entry is evicted first. The cache, and its store, keep value and
// snap as given: the caller must not modify them afterwards.
func (c *Cache) Put(obj int, value []byte, cycle cmatrix.Cycle, snap protocol.Snapshot) {
	c.put(obj, value, cycle, snap, true)
}

func (c *Cache) put(obj int, value []byte, cycle cmatrix.Cycle, snap protocol.Snapshot, persist bool) {
	e := c.entries[obj]
	if e != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	} else {
		if c.max > 0 && len(c.entries) >= c.max {
			c.drop(c.order.next)
		}
		if e = c.spare; e != nil {
			c.spare = e.next
		} else {
			e = new(cacheEntry)
		}
		c.entries[obj] = e
	}
	*e = cacheEntry{obj: obj, value: value, cycle: cycle, snap: snap, prev: c.order.prev, next: &c.order}
	e.prev.next, c.order.prev = e, e
	if persist && c.store != nil {
		if col, ok := storedColumn(snap); ok {
			c.storeErr(c.store.set(obj, Entry{Value: value, Cycle: cycle, Col: col}, true))
		}
	}
}

// Remove drops obj's entry, if any.
func (c *Cache) Remove(obj int) {
	if e, ok := c.entries[obj]; ok {
		c.drop(e)
	}
}

// Expire drops every entry that is not current at cycle now and reports
// how many were kept and dropped. It is both the per-cycle expiry and
// the revalidation of a recovered inventory against the first cycle
// heard: only genuinely stale entries go, however many cycles were
// missed in between. It is also the cycle edge: it flushes the store.
func (c *Cache) Expire(now cmatrix.Cycle) (kept, dropped int64) {
	for e := c.order.next; e != &c.order; {
		next := e.next
		if !c.current(e.obj, e.cycle, now) {
			c.drop(e)
			dropped++
		}
		e = next
	}
	if c.store != nil {
		lost, _ := c.store.flush() // lost covers the error; ErrClosed was counted per mutation
		for ; lost > 0 && c.onStoreErr != nil; lost-- {
			c.onStoreErr()
		}
	}
	return int64(len(c.entries)), dropped
}

// Clear drops every entry, in memory and in the store (epoch reset).
func (c *Cache) Clear() {
	for c.order.next != &c.order {
		c.drop(c.order.next)
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// drop unlinks one entry, in memory and in the store, and keeps the
// emptied node for the next Put.
func (c *Cache) drop(e *cacheEntry) {
	delete(c.entries, e.obj)
	e.prev.next, e.next.prev = e.next, e.prev
	c.unpersist(e.obj)
	*e = cacheEntry{next: c.spare}
	c.spare = e
}

func (c *Cache) unpersist(obj int) {
	if c.store != nil {
		c.storeErr(c.store.Delete(obj))
	}
}

func (c *Cache) storeErr(err error) {
	if err != nil && c.onStoreErr != nil {
		c.onStoreErr()
	}
}

// storedColumn extracts the persistable control column from a retained
// snapshot: the F-Matrix column, or the whole (small) vector. Grouped
// snapshots carry no per-object column and stay memory-only.
func storedColumn(snap protocol.Snapshot) ([]cmatrix.Cycle, bool) {
	switch s := snap.(type) {
	case protocol.ColumnSnapshot:
		return s.Col, true
	case *cmatrix.Vector:
		return protocol.ColumnOf(s, 0, s.N()).Col, true
	default:
		return nil, false
	}
}
