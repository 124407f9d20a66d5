package qcache

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

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
		col, _ := storedColumn(e.snap)
		objs = append(objs, e.obj)
		inv[e.obj] = Entry{Value: e.value, Cycle: e.cycle, Col: col}
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
				c.Put(1, []byte("v"), tc.cached, colSnap(1, 0, 0))
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
					c.Put(o.obj, nil, o.at, colSnap(o.obj, 0))
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
				c.Put(obj, val, now, colSnap(obj, col...))
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
	value, col := make([]byte, 64), make([]cmatrix.Cycle, objects)
	snaps := make([]protocol.Snapshot, objects)
	for obj := range snaps {
		snaps[obj] = colSnap(obj, col...)
	}
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
				c.Put(obj, value, now, snaps[obj])
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
		c.Put(obj, value, 1, colSnap(obj, col...))
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
