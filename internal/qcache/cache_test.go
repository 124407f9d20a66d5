package qcache

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/wire"
)

// newTestCache builds a cache whose currency bound is read through
// *bound on every check, so a test can lower it mid-cycle.
func newTestCache(max int, bound *cmatrix.Cycle, store *Store, onErr func()) *Cache {
	c := new(Cache)
	c.Init(max, func(int) cmatrix.Cycle { return *bound }, store, onErr)
	return c
}

func colSnap(obj int, col ...cmatrix.Cycle) protocol.ColumnSnapshot {
	return protocol.ColumnSnapshot{Obj: obj, Col: col}
}

// contents walks the caching order and returns what the cache holds,
// oldest first, in the store's vocabulary. It also checks that the
// order ring and the index agree: every live entry is linked exactly
// once and nothing else is.
func contents(t *testing.T, c *Cache) (objs []int, inv map[int]Entry) {
	t.Helper()
	inv = map[int]Entry{}
	for e := c.order.next; e != &c.order; e = e.next {
		if c.entries[e.obj] != e {
			t.Fatalf("order ring holds object %d, the index does not", e.obj)
		}
		if e.next.prev != e {
			t.Fatalf("order ring broken after object %d", e.obj)
		}
		objs = append(objs, e.obj)
		inv[e.obj] = Entry{Value: e.blk.value, Cycle: e.cycle, Col: e.blk.col}
	}
	if len(objs) != c.Len() {
		t.Fatalf("order ring has %d entries, the index %d", len(objs), c.Len())
	}
	return objs, inv
}

// TestCacheCurrency pins the one currency test through each of its
// callers' eyes: Get at read time, Expire at a cycle boundary.
func TestCacheCurrency(t *testing.T) {
	const T = 3
	cases := []struct {
		name   string
		bound  cmatrix.Cycle // bound at Put time
		cached cmatrix.Cycle
		now    cmatrix.Cycle
		lower  cmatrix.Cycle // bound at check time
		want   bool
	}{
		{"age 0", T, 5, 5, T, true},
		{"age T served", T, 5, 5 + T, T, true},
		{"age T+1 dropped", T, 5, 5 + T + 1, T, false},
		{"bound 0 never served from a later cycle", 0, 5, 6, 0, false},
		{"bound 0 lasts out the caching cycle", 0, 5, 5, 0, true},
		{"negative bound never served", -1, 5, 5, -1, false},
		{"bound lowered mid-cycle", T, 5, 5 + T, T - 1, false},
		{"cached in a later epoch", T, 9, 5, T, false},
	}
	for _, tc := range cases {
		for _, via := range []string{"Get", "Expire"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				bound := tc.bound
				c := newTestCache(0, &bound, nil, nil)
				c.PutColumn(1, []byte("v"), tc.cached, colSnap(1, 0, 0), 2)
				bound = tc.lower
				if via == "Expire" {
					kept, dropped := c.Expire(tc.now)
					if (kept == 1) != tc.want || kept+dropped != 1 {
						t.Fatalf("Expire = kept %d dropped %d, want kept=%v", kept, dropped, tc.want)
					}
				}
				value, cycle, snap, ok := c.Get(1, tc.now)
				if ok != tc.want {
					t.Fatalf("Get ok = %v, want %v", ok, tc.want)
				}
				if ok && (string(value) != "v" || cycle != tc.cached || snap.Bound(0, 1) != 0) {
					t.Fatalf("Get = %q @%d %v", value, cycle, snap)
				}
				if !ok && c.Len() != 0 {
					t.Fatal("a stale entry must be dropped on the spot")
				}
			})
		}
	}
}

// TestCacheEvictionOrder pins least-recently-cached eviction: an entry
// that left the cache (expired, removed) and came back is the newest,
// not the oldest, and a re-put moves an entry to the back.
func TestCacheEvictionOrder(t *testing.T) {
	const T = 4
	type op struct {
		kind string // put | remove | get
		obj  int
		at   cmatrix.Cycle
	}
	cases := []struct {
		name string
		ops  []op
		want []int // caching order afterwards, oldest first
	}{
		{"fifo", []op{{"put", 1, 1}, {"put", 2, 1}, {"put", 3, 1}}, []int{2, 3}},
		{"re-put moves to the back", []op{{"put", 1, 1}, {"put", 2, 1}, {"put", 1, 2}, {"put", 3, 2}}, []int{1, 3}},
		{"expiry then recache", []op{{"put", 1, 1}, {"put", 2, 1 + T}, {"get", 1, 2 + T}, {"put", 1, 2 + T}, {"put", 3, 2 + T}}, []int{1, 3}},
		{"remove then recache", []op{{"put", 1, 1}, {"put", 2, 1}, {"remove", 1, 1}, {"put", 1, 1}, {"put", 3, 1}}, []int{1, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bound := cmatrix.Cycle(T)
			c := newTestCache(2, &bound, nil, nil)
			for _, o := range tc.ops {
				switch o.kind {
				case "put":
					c.PutColumn(o.obj, nil, o.at, colSnap(o.obj, 0), 1)
				case "remove":
					c.Remove(o.obj)
				case "get":
					c.Get(o.obj, o.at)
				}
			}
			if got, _ := contents(t, c); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("caching order = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCacheSnapshotNotReboxed: a hit hands back the interface value Put
// was given and allocates nothing.
func TestCacheSnapshotNotReboxed(t *testing.T) {
	bound := cmatrix.Cycle(8)
	c := newTestCache(0, &bound, nil, nil)
	vec := cmatrix.NewVector(4)
	c.Put(0, []byte("v"), 1, vec)
	if _, _, snap, ok := c.Get(0, 2); !ok || snap != protocol.Snapshot(vec) {
		t.Fatalf("Get returned snapshot %v, want the vector that was put", snap)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Get(0, 2) }); allocs != 0 {
		t.Fatalf("a cache hit allocates %.0f times", allocs)
	}
}

// TestCacheTracksStore runs a seeded random operation sequence against
// a cache with a store and requires the store's inventory to equal the
// cache's contents record for record throughout, and a reopened store
// to recover the same set.
func TestCacheTracksStore(t *testing.T) {
	const (
		objects = 40
		maxSize = 16
		ops     = 2000
	)
	dir := t.TempDir()
	store, err := OpenOptions(dir, Options{MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	bound := cmatrix.Cycle(6)
	c := newTestCache(maxSize, &bound, store, func() { t.Error("store write failed") })
	rng := rand.New(rand.NewSource(13))
	now := cmatrix.Cycle(1)
	for i := 0; i < ops; i++ {
		obj := rng.Intn(objects)
		switch p := rng.Float64(); {
		case p < 0.45:
			col := make([]cmatrix.Cycle, 3)
			for j := range col {
				col[j] = cmatrix.Cycle(rng.Int63n(int64(now)))
			}
			val := make([]byte, rng.Intn(9))
			rng.Read(val)
			if rng.Intn(2) == 0 {
				c.PutColumn(obj, val, now, colSnap(obj, col...), len(col))
			} else {
				vec, _ := cmatrix.VectorFromEntries(col)
				c.Put(obj, val, now, vec)
			}
		case p < 0.75:
			c.Get(obj, now)
		case p < 0.85:
			c.Remove(obj)
		case p < 0.99:
			now += cmatrix.Cycle(rng.Intn(3))
			c.Expire(now)
		default:
			c.Clear()
		}
		if c.Len() > maxSize {
			t.Fatalf("op %d: %d entries, cap %d", i, c.Len(), maxSize)
		}
		if i%50 == 0 || i == ops-1 {
			_, inv := contents(t, c)
			sameInventory(t, store.Inventory(), inv)
		}
	}
	want, wantInv := contents(t, c)
	if len(want) == 0 {
		t.Fatal("degenerate sequence: the cache ended empty")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rc := newTestCache(maxSize, &bound, re, nil)
	n := rc.Recover()
	if n != len(want) {
		t.Fatalf("recovered %d entries, want %d", n, len(want))
	}
	_, got := contents(t, rc)
	sameInventory(t, got, wantInv)
	sameInventory(t, re.Inventory(), wantInv)
}

// TestCacheRecoverKeepsNewest: an inventory larger than the cap is
// seeded oldest first, so the most recently cached entries survive, the
// losers leave the store, and an entry stored without a control column
// is deleted rather than served unvalidated.
func TestCacheRecoverKeepsNewest(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Cycles fall as ids rise, with a tie at cycle 5 broken by id; the
	// newest entry, object 0, has no column.
	for obj, cycle := range []cmatrix.Cycle{9, 8, 7, 5, 5, 4, 3} {
		if err := store.Put(obj, []byte{byte(obj)}, cycle, make([]cmatrix.Cycle, min(obj, 1))); err != nil {
			t.Fatal(err)
		}
	}
	bound := cmatrix.Cycle(100)
	c := newTestCache(4, &bound, store, func() { t.Error("store write failed") })
	n := c.Recover()
	if got, _ := contents(t, c); n != 4 || !reflect.DeepEqual(got, []int{3, 4, 2, 1}) {
		t.Fatalf("recovered %d entries in order %v, want [3 4 2 1]", n, got)
	}
	_, inv := contents(t, c)
	sameInventory(t, store.Inventory(), inv)
}

// BenchmarkCacheCycle is one read-cached cycle of cache traffic: 256
// reads over 64 objects through a 48-entry currency-8 cache with a
// store, every miss a Put of a 64-byte value and a 64-entry column (and
// at the cap an eviction), then the cycle edge's Expire.
func BenchmarkCacheCycle(b *testing.B) {
	const objects, reads = 64, 256
	store, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	bound := cmatrix.Cycle(8)
	c := newTestCache(48, &bound, store, func() { b.Fatal("store write failed") })
	value, m := make([]byte, 64), cmatrix.NewMatrix(objects)
	rng := rand.New(rand.NewSource(7))
	ids := make([]int, 64*reads)
	for i := range ids {
		ids[i] = rng.Intn(objects)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := cmatrix.Cycle(i + 1)
		for _, obj := range ids[i%64*reads:][:reads] {
			if _, _, _, ok := c.Get(obj, now); !ok {
				c.PutColumn(obj, value, now, m, objects)
			}
		}
		c.Expire(now)
	}
}

// TestCacheFailingStore: once the store's write budget runs out, every
// record a flush fails to log is reported exactly once, at that flush;
// the in-memory cache, and the store's inventory that tracks it, carry
// on unharmed, and a cold open recovers exactly what was written whole.
func TestCacheFailingStore(t *testing.T) {
	value, col := []byte("value"), []cmatrix.Cycle{1, 2, 3}
	recLen := int64(4 + wire.CacheRecordSize(wire.CacheRecord{Kind: wire.CachePut, Obj: 0, Cycle: 1, Value: value, Col: col}))
	dir := t.TempDir()
	store, err := OpenOptions(dir, Options{WriteBudget: 2*recLen + recLen/2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	failed := 0
	bound := cmatrix.Cycle(8)
	c := newTestCache(0, &bound, store, func() { failed++ })

	for obj := 0; obj < 5; obj++ {
		c.PutColumn(obj, value, 1, colSnap(obj, col...), len(col))
	}
	if failed != 0 {
		t.Fatalf("store errors before the cycle edge = %d, want 0", failed)
	}
	c.Expire(1)
	if failed != 3 { // record 2 torn at the budget, 3 and 4 refused
		t.Fatalf("store errors after the first flush = %d, want 3", failed)
	}
	c.Remove(0) // its tombstone cannot be written either
	c.Remove(4) // never reached the log: nothing to write, nothing to fail
	c.Expire(1)
	if failed != 4 {
		t.Fatalf("store errors after the removes' flush = %d, want 4", failed)
	}
	got, inv := contents(t, c)
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("in-memory cache holds %v, want [1 2 3]", got)
	}
	for _, obj := range []int{1, 2, 3} {
		if v, cycle, _, ok := c.Get(obj, 2); !ok || cycle != 1 || !bytes.Equal(v, value) {
			t.Fatalf("object %d: Get = %q @%d %v", obj, v, cycle, ok)
		}
	}
	sameInventory(t, store.Inventory(), inv)
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	durable := Entry{Value: value, Cycle: 1, Col: col}
	sameInventory(t, re.Inventory(), map[int]Entry{0: durable, 1: durable})
}

// TestHeldColumnSurvivesChurn: a validator that read an entry keeps its
// block through eviction, expiry and ten cycles of churn that refill
// every other block, and still reads the column and value the entry was
// cached with; once it lets go the block is free, and under the
// framepoison tag reads 0xA5 at once.
func TestHeldColumnSurvivesChurn(t *testing.T) {
	const objects, size = 16, 4
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	bound := cmatrix.Cycle(2)
	c := newTestCache(size, &bound, store, func() { t.Error("store write failed") })
	matrix := func(c func(i, j int) cmatrix.Cycle) *cmatrix.Matrix {
		cols := make([][]cmatrix.Cycle, objects)
		for j := range cols {
			cols[j] = make([]cmatrix.Cycle, objects)
			for i := range cols[j] {
				cols[j][i] = c(i, j)
			}
		}
		m, err := cmatrix.MatrixFromColumns(cols)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	published := matrix(func(i, _ int) cmatrix.Cycle { return cmatrix.Cycle(i) })
	b := c.PutColumn(3, []byte("held"), 1, published, objects)
	var v protocol.SnapshotValidator
	if !v.TryRead(b, 3, 1) {
		t.Fatal("first read refused")
	}
	churn := matrix(func(int, int) cmatrix.Cycle { return 1000 })
	for cycle := cmatrix.Cycle(2); cycle < 14; cycle++ {
		for obj := 4; obj < objects; obj++ {
			c.PutColumn(obj, []byte("churn"), cycle, churn, objects)
		}
		c.Expire(cycle)
	}
	if _, _, _, ok := c.Get(3, 14); ok {
		t.Fatal("object 3 is still cached")
	}
	if got := b.col; !slices.Equal(got, published.Col(3)) || string(b.value) != "held" {
		t.Fatalf("held block reads %q %v, published %v", b.value, got, published.Col(3))
	}
	// The held column still decides the backward check: C(5, 3) = 5 is
	// below cycle 6, not below cycle 5.
	for cur, want := range map[cmatrix.Cycle]bool{6: true, 5: false} {
		var probe protocol.SnapshotValidator
		if !probe.TryRead(b, 3, 1) {
			t.Fatal("re-read refused")
		}
		if got := probe.TryRead(cmatrix.NewMatrix(objects), 5, cur); got != want {
			t.Fatalf("read of 5 at cycle %d after the held read = %v, want %v", cur, got, want)
		}
		probe.Reset()
	}
	free := c.nfree
	v.Reset()
	if c.nfree != free+1 || c.free != b {
		t.Fatalf("the released block is not the first free one (%d free, was %d)", c.nfree, free)
	}
	if bcast.Poisoned {
		for i := range objects {
			if b.Bound(i, 3) != poisonCycle {
				t.Fatalf("released block's C(%d, 3) = %#x, want the poison", i, b.Bound(i, 3))
			}
		}
		if !bytes.Equal(b.value, bytes.Repeat([]byte{0xA5}, len(b.value))) {
			t.Fatalf("released block's value %x, want the poison", b.value)
		}
	}
}

// TestFreeBlocksBounded: blocks let go of all at once return to the
// cache's free list up to its bound, never more than the cache holds,
// and each later miss refills one instead of allocating.
func TestFreeBlocksBounded(t *testing.T) {
	const objects = 64
	m := cmatrix.NewMatrix(objects)
	for _, size := range []int{0, 4, 48} {
		bound := cmatrix.Cycle(8)
		c := newTestCache(size, &bound, nil, nil)
		var held []*Block
		for obj := 0; obj < objects; obj++ {
			b := c.PutColumn(obj, make([]byte, 64), 1, m, objects)
			b.Retain()
			held = append(held, b)
		}
		c.Clear()
		for _, b := range held {
			b.Release()
		}
		limit := freeMax
		if size > 0 {
			limit = min(freeMax, size)
		}
		if c.nfree != limit {
			t.Fatalf("size %d: %d free blocks, want %d", size, c.nfree, limit)
		}
		for obj := 0; obj < limit; obj++ {
			if b := c.PutColumn(obj, make([]byte, 64), 2, m, objects); !slices.Contains(held, b) {
				t.Fatalf("size %d: miss %d took a new block with %d free", size, obj, c.nfree)
			}
		}
		if c.nfree != 0 {
			t.Fatalf("size %d: %d blocks still free", size, c.nfree)
		}
	}
}
