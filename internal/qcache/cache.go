package qcache

import (
	"fmt"
	"sort"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// Cache is the weak-currency cache of Section 3.3, shared by the live
// client and the simulator: per object a value, the cycle it was cached
// in and the control information retained to validate it, served while
// the entry is within its currency bound. Eviction is
// least-recently-cached. With a Store attached every mutation reaches
// the store's inventory, which tracks the in-memory one entry for entry;
// the store logs them behind, at every Expire. Each entry keeps its
// value, and the column it is validated by, in a Block the cache
// recycles once nothing holds it, so a cache in steady state allocates
// nothing. Not safe for concurrent use.
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
	// reuse.
	spare *cacheEntry
	// free chains released blocks (through next), nfree of them, for the
	// next Put to fill.
	free  *Block
	nfree int
}

// freeMax bounds the blocks a cache keeps free, and so the storage it
// holds beyond its live entries; a size cap below it lowers the bound.
// Blocks come back one at a time — an eviction just before the Put that
// refills it, a finished transaction's reads — so a few suffice.
const freeMax = 16

type cacheEntry struct {
	obj        int
	cycle      cmatrix.Cycle
	blk        *Block
	snap       protocol.Snapshot // blk, or the snapshot Put kept whole
	prev, next *cacheEntry
}

// Block is one cached object's storage: its value and, for an entry put
// with PutColumn, column obj of the control of the cycle it was cached
// in, which the block serves as a protocol.Pinned snapshot. A block is
// counted: the cache holds one count while the entry is live (the
// store's inventory shares the block's slices for exactly as long), and
// each SnapshotValidator read of it holds one until Reset. When the
// last count goes the block returns to its cache, and a later Put fills
// it with another object; under the framepoison build tag it is filled
// with 0xA5 first. Counts are taken and dropped on the cache's
// goroutine.
type Block struct {
	obj   int
	value []byte
	col   []cmatrix.Cycle
	refs  int32
	cache *Cache
	next  *Block // free chain
}

// poisonCycle is 0xA5A5A5A5A5A5A5A5, what a poisoned column entry reads.
const poisonCycle = ^cmatrix.Cycle(0x5A5A5A5A5A5A5A5A)

// Bound implements protocol.Snapshot for j == the block's object only:
// C(i, obj) as cached.
func (b *Block) Bound(i, j int) cmatrix.Cycle {
	if j != b.obj {
		panic(fmt.Sprintf("qcache: column of object %d asked about object %d", b.obj, j))
	}
	return b.col[i]
}

// Retain adds a holder.
func (b *Block) Retain() { b.refs++ }

// Release drops a holder. The last one hands the block back to its
// cache.
func (b *Block) Release() {
	switch b.refs--; {
	case b.refs == 0:
		b.cache.recycle(b)
	case b.refs < 0:
		panic("qcache: block released more often than retained")
	}
}

// recycle keeps a block nothing holds for the next Put, up to the bound;
// beyond it the block is left to the collector.
func (c *Cache) recycle(b *Block) {
	if bcast.Poisoned {
		value, col := b.value[:cap(b.value)], b.col[:cap(b.col)]
		for i := range value {
			value[i] = 0xA5
		}
		for i := range col {
			col[i] = poisonCycle
		}
	}
	limit := freeMax
	if c.max > 0 {
		limit = min(limit, c.max)
	}
	if c.nfree < limit {
		b.next, c.free = c.free, b
		c.nfree++
	}
}

// block returns a block for obj holding a copy of value and an empty
// column, with one count, the cache's: a free one if there is one.
func (c *Cache) block(obj int, value []byte) *Block {
	b := c.free
	if b != nil {
		c.free, b.next = b.next, nil
		c.nfree--
	} else {
		b = &Block{cache: c}
	}
	b.obj, b.refs = obj, 1
	b.value, b.col = append(b.value[:0], value...), b.col[:0]
	return b
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
// A stored column, F-Matrix column or vector alike, comes back as a
// column entry of its object: Col[i] guards the object against a prior
// read of i either way. Seeding runs in ascending (cycle, object)
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
		b := c.block(obj, e.Value)
		b.col = append(b.col, e.Col...)
		c.put(obj, e.Cycle, b, b, false)
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
// next read rather than at the next cycle boundary. The value slice is
// the entry's block: read it, copy what outlives the entry, never write
// it. The snapshot is the entry's Block, or the snapshot Put kept
// whole; a holder past the read takes a count on it if it is Pinned.
func (c *Cache) Get(obj int, now cmatrix.Cycle) (value []byte, cycle cmatrix.Cycle, snap protocol.Snapshot, ok bool) {
	e, ok := c.entries[obj]
	if !ok {
		return nil, 0, nil, false
	}
	if !c.current(obj, e.cycle, now) {
		c.drop(e)
		return nil, 0, nil, false
	}
	return e.blk.value, e.cycle, e.snap, true
}

// PutColumn caches obj as read in cycle — a copy of value, and a copy
// of column obj of snap, the control of an n-object cycle
// (protocol.AppendColumn) — making it the most recently cached entry; at
// the size cap the oldest entry is evicted first. It returns the
// entry's block, the snapshot Get serves the entry with, which the read
// is validated against as well: neither keeps snap.
func (c *Cache) PutColumn(obj int, value []byte, cycle cmatrix.Cycle, snap protocol.Snapshot, n int) *Block {
	b := c.block(obj, value)
	b.col = protocol.AppendColumn(b.col, snap, obj, n)
	c.put(obj, cycle, b, b, true)
	return b
}

// Put is PutColumn keeping snap whole — a vector or grouped control,
// which does not split by object — and holding a count on it while the
// entry lives if it is Pinned; snap must not be modified afterwards.
// Only a vector entry reaches the store: its entries, every object's
// guard under the vector protocols, are logged as the entry's column.
func (c *Cache) Put(obj int, value []byte, cycle cmatrix.Cycle, snap protocol.Snapshot) {
	b := c.block(obj, value)
	if v, ok := snap.(protocol.Vector); ok && c.store != nil {
		for i := range v.N() {
			b.col = append(b.col, v.At(i))
		}
	}
	if p, ok := snap.(protocol.Pinned); ok {
		p.Retain()
	}
	c.put(obj, cycle, b, snap, true)
}

// put makes (b, snap) obj's entry. The entry it replaces, if any, lets
// go of its counts last, after the store's inventory has moved to b.
func (c *Cache) put(obj int, cycle cmatrix.Cycle, b *Block, snap protocol.Snapshot, persist bool) {
	var old cacheEntry
	e := c.entries[obj]
	if e != nil {
		old = *e
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
	*e = cacheEntry{obj: obj, cycle: cycle, blk: b, snap: snap, prev: c.order.prev, next: &c.order}
	e.prev.next, c.order.prev = e, e
	if persist && c.store != nil {
		if len(b.col) > 0 {
			c.storeErr(c.store.set(obj, Entry{Value: b.value, Cycle: cycle, Col: b.col}, true))
		} else {
			c.unpersist(obj) // memory only: the store must not keep the old block
		}
	}
	if old.blk != nil {
		old.release()
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

// drop unlinks one entry, in memory and in the store, lets go of its
// counts and keeps the emptied node for the next Put.
func (c *Cache) drop(e *cacheEntry) {
	delete(c.entries, e.obj)
	e.prev.next, e.next.prev = e.next, e.prev
	c.unpersist(e.obj)
	e.release()
	*e = cacheEntry{next: c.spare}
	c.spare = e
}

// release lets go of the counts an entry held: its block's and, for a
// snapshot kept whole, the snapshot's.
func (e *cacheEntry) release() {
	if p, ok := e.snap.(protocol.Pinned); ok && e.snap != protocol.Snapshot(e.blk) {
		p.Release()
	}
	e.blk.Release()
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
