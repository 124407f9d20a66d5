package client

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// newPersistentPair builds a server and a caching client backed by a
// persistent store in dir.
func newPersistentPair(t *testing.T, alg protocol.Algorithm, n int, dir string, cfg Config) (*server.Server, *Client, *qcache.Store) {
	t.Helper()
	srv, err := server.New(server.Config{
		Objects:    n,
		ObjectBits: 64,
		Algorithm:  alg,
		Audit:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := qcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algorithm = alg
	cfg.Store = store
	if cfg.CacheCurrency == 0 {
		cfg.CacheCurrency = 8
	}
	c := New(cfg, srv.Subscribe(64))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { store.Close() })
	return srv, c, store
}

// TestPersistentCacheSurvivesRestart is the tentpole flow: cache off
// the air, abandon the client (no clean shutdown), reopen the store in
// a fresh client, and serve the first read from the revalidated
// inventory without it ever crossing the air again.
func TestPersistentCacheSurvivesRestart(t *testing.T) {
	for _, alg := range []protocol.Algorithm{protocol.FMatrix, protocol.RMatrix} {
		dir := t.TempDir()
		srv, c, store := newPersistentPair(t, alg, 4, dir, Config{CacheCurrency: 10})
		commitWrite(t, srv, 0, "alpha")
		commitWrite(t, srv, 1, "beta")
		srv.StartCycle()
		c.AwaitCycle()
		txn := c.BeginReadOnly()
		for _, obj := range []int{0, 1} {
			if _, err := txn.Read(obj); err != nil {
				t.Fatalf("%v: warm read %d: %v", alg, obj, err)
			}
		}
		txn.Commit()
		if store.Len() != 2 {
			t.Fatalf("%v: store has %d entries, want 2", alg, store.Len())
		}
		// "Crash": no Close, no eviction. A new client process opens the
		// same directory.
		store.Close()
		re, err := qcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		c2 := New(Config{Algorithm: alg, CacheCurrency: 10, Store: re}, srv.Subscribe(64))
		srv.StartCycle()
		c2.AwaitCycle()
		if got := c2.Stats().Reads; got != 0 {
			t.Fatalf("%v: restarted client read %d times before being asked", alg, got)
		}
		txn2 := c2.BeginReadOnly()
		v, err := txn2.Read(0)
		if err != nil || string(v) != "alpha" {
			t.Fatalf("%v: restarted read = %q, %v", alg, v, err)
		}
		txn2.Commit()
		st := c2.Stats()
		if st.CacheHits != 1 {
			t.Fatalf("%v: restarted read was not a cache hit (hits=%d)", alg, st.CacheHits)
		}
		if c2.obs.Counter("client_cache_revalidated").Load() != 2 {
			t.Fatalf("%v: revalidated = %d, want 2", alg, c2.obs.Counter("client_cache_revalidated").Load())
		}
	}
}

// TestCacheFlushesAtCycleEdge: a cycle's misses and evictions only
// reach the store's inventory — the log on disk does not grow, though
// their records would fill the store's 8 KiB buffer several times over —
// and the next cycle's arrival logs them, so a process abandoned after
// it recovers exactly the cache's inventory at that edge.
func TestCacheFlushesAtCycleEdge(t *testing.T) {
	const n, size = 64, 48
	dir := t.TempDir()
	srv, c, _ := newPersistentPair(t, protocol.FMatrix, n, dir, Config{CacheSize: size})
	commitWrite(t, srv, 0, "alpha")
	srv.StartCycle()
	c.AwaitCycle()
	logBytes := func() int64 {
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.bcq"))
		var n int64
		for _, seg := range segs {
			if st, err := os.Stat(seg); err == nil {
				n += st.Size()
			}
		}
		return n
	}
	before := logBytes()
	// Two passes in object order through a least-recently-cached cache
	// smaller than the database miss on every read.
	for pass := 0; pass < 2; pass++ {
		for lo := 0; lo < n; lo += 16 {
			txn := c.BeginReadOnly()
			for obj := lo; obj < lo+16; obj++ {
				if _, err := txn.Read(obj); err != nil {
					t.Fatalf("read %d: %v", obj, err)
				}
			}
			txn.Commit()
		}
	}
	st := c.Stats()
	misses := st.Reads - st.CacheHits
	put := 4 + wire.CacheRecordSize(wire.CacheRecord{Kind: wire.CachePut, Value: make([]byte, 8), Col: make([]cmatrix.Cycle, n)})
	del := 4 + wire.CacheRecordSize(wire.CacheRecord{Kind: wire.CacheDelete})
	if encoded := misses*int64(put) + (misses-size)*int64(del); misses < 100 || encoded < 40<<10 {
		t.Fatalf("degenerate cycle: %d misses, %d bytes of records", misses, encoded)
	}
	if after := logBytes(); after != before {
		t.Fatalf("the log grew from %d to %d bytes inside a cycle", before, after)
	}
	srv.StartCycle()
	c.AwaitCycle()
	// No Close: a cold open of the same directory sees what the cycle
	// edge wrote, which is what the cache holds.
	re, err := qcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	inv := re.Inventory()
	if len(inv) != size || c.cache.Len() != size {
		t.Fatalf("cold reopen after the cycle edge recovered %d entries, the cache holds %d; want %d", len(inv), c.cache.Len(), size)
	}
	for obj := n - size; obj < n; obj++ {
		value, cycle, snap, ok := c.cache.Get(obj, c.Current().Number)
		col, isCol := snap.(protocol.ColumnSnapshot)
		if e, found := inv[obj]; !ok || !found || !isCol || e.Cycle != cycle || string(e.Value) != string(value) || !reflect.DeepEqual(e.Col, col.Col) {
			t.Fatalf("object %d: recovered %+v (%v), the cache holds %q @%d %v (%v)", obj, e, found, value, cycle, snap, ok)
		}
	}
}

// TestRestartRevalidationDropsAgedEntries: entries beyond the currency
// bound at the first post-restart cycle are dropped, fresher ones kept.
func TestRestartRevalidationDropsAgedEntries(t *testing.T) {
	dir := t.TempDir()
	srv, c, store := newPersistentPair(t, protocol.FMatrix, 4, dir, Config{CacheCurrency: 3})
	commitWrite(t, srv, 0, "old")
	srv.StartCycle() // cycle 1
	c.AwaitCycle()
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	srv.StartCycle() // cycle 2
	c.AwaitCycle()
	txn = c.BeginReadOnly()
	if _, err := txn.Read(1); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	// Age the inventory while the first client is not listening (it
	// never processes these cycles, so its own eviction cannot clean the
	// store for us): by cycle 5, obj 0 (cached at 1) is past T=3 and
	// obj 1 (cached at 2) is exactly at the bound.
	srv.StartCycle() // 3
	srv.StartCycle() // 4
	srv.StartCycle() // 5
	store.Close()

	re, err := qcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The late tuner is handed the last cycle (5) on subscribe; the
	// first AwaitCycle triggers the inventory revalidation.
	c2 := New(Config{Algorithm: protocol.FMatrix, CacheCurrency: 3, Store: re}, srv.Subscribe(64))
	c2.AwaitCycle()
	if kept := c2.obs.Counter("client_cache_revalidated").Load(); kept != 1 {
		t.Fatalf("revalidated = %d, want 1", kept)
	}
	if dropped := c2.obs.Counter("client_cache_dropped").Load(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	// The dropped entry is also gone from the store.
	if _, ok := re.Get(0); ok {
		t.Fatal("aged entry survived in the store")
	}
	if _, ok := re.Get(1); !ok {
		t.Fatal("fresh entry missing from the store")
	}
}

// TestCurrencyBoundLoweredMidCycle is the satellite-4 regression: the
// old cache only evicted on cycle boundaries, so a CacheCurrencyOf
// bound lowered mid-run kept serving an entry older than its new bound
// until the next cycle. get must recheck at read time.
func TestCurrencyBoundLoweredMidCycle(t *testing.T) {
	bound := cmatrix.Cycle(10)
	srv, c := newPair(t, protocol.FMatrix, 2, Config{
		CacheCurrency:   10,
		CacheCurrencyOf: func(obj int) cmatrix.Cycle { return bound },
	})
	commitWrite(t, srv, 0, "v1")
	srv.StartCycle() // cycle 1
	c.AwaitCycle()
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	srv.StartCycle() // cycle 2
	srv.StartCycle() // cycle 3
	c.AwaitCycle()
	c.AwaitCycle() // entry is now 2 cycles old, within bound 10
	txn = c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if c.Stats().CacheHits != 1 {
		t.Fatalf("warm read should hit the cache (hits=%d)", c.Stats().CacheHits)
	}
	// Lower the bound mid-cycle: the entry (age 2) is now past it. No
	// cycle boundary runs between here and the next read.
	bound = 1
	txn = c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if hits := c.Stats().CacheHits; hits != 1 {
		t.Fatalf("read after lowering the bound hit the cache (hits=%d)", hits)
	}
	if c.cache.Len() != 1 {
		// The stale entry was evicted at read time and re-cached fresh.
		t.Fatalf("cache len = %d, want 1 (fresh re-cache)", c.cache.Len())
	}
	if _, cycle, _, ok := c.cache.Get(0, c.cur.Number); !ok || cycle != 3 {
		t.Fatalf("re-cached entry at cycle %d, want 3", cycle)
	}
}

// TestCacheSkipRevalidateHookServesStale pins what the conformance
// harness's cache-skip defect models: with the currency bound lifted out
// of reach (a CacheCurrencyOf returning MaxInt64), the read-time
// currency check and the cycle-boundary eviction are both disabled, so
// a cached entry older than T keeps serving.
func TestCacheSkipRevalidateHookServesStale(t *testing.T) {
	skip := false
	srv, c := newPair(t, protocol.FMatrix, 2, Config{
		CacheCurrency: 1,
		CacheCurrencyOf: func(int) cmatrix.Cycle {
			if skip {
				return math.MaxInt64
			}
			return 1
		},
	})
	commitWrite(t, srv, 0, "v1")
	srv.StartCycle() // cycle 1
	c.AwaitCycle()
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()

	skip = true
	srv.StartCycle() // 2
	srv.StartCycle() // 3
	c.AwaitCycle()
	c.AwaitCycle() // entry age 2 > T=1, but the lifted bound keeps it
	txn = c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if hits := c.Stats().CacheHits; hits != 1 {
		t.Fatalf("read under the lifted bound should have served stale from cache (hits=%d)", hits)
	}
	skip = false
	// With the bound back, the same read re-fetches off the air.
	txn = c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if hits := c.Stats().CacheHits; hits != 1 {
		t.Fatalf("read under T=1 served stale (hits=%d)", hits)
	}
}

// TestCachedReadUpdateRejectedByServer: an update transaction reads an
// object from the cache, still within its currency bound T, after the
// server overwrote it. The client's read-condition has no later read to
// hold it against, so the read passes; the server's validation at
// commit sees the conflicting write and rejects the update, while an
// independent update still commits.
func TestCachedReadUpdateRejectedByServer(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 4, Config{CacheCurrency: 2})
	commitWrite(t, srv, 0, "before")
	srv.StartCycle() // cycle 1
	c.AwaitCycle()
	warm := c.BeginReadOnly() // caches obj 0 at cycle 1
	if _, err := warm.Read(0); err != nil {
		t.Fatal(err)
	}
	warm.Commit()
	commitWrite(t, srv, 0, "after")
	srv.StartCycle() // cycle 2
	c.AwaitCycle()

	txn := c.BeginUpdate()
	if v, err := txn.Read(0); err != nil || string(v) != "before" {
		t.Fatalf("cached read = %q, %v; want the cycle-1 value", v, err)
	}
	if hits := c.Stats().CacheHits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if err := txn.Write(1, []byte("dep")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(srv); !errors.Is(err, server.ErrConflict) {
		t.Fatalf("update over a stale cached read = %v, want server.ErrConflict", err)
	}
	indep := c.BeginUpdate()
	if err := indep.Write(3, []byte("indep")); err != nil {
		t.Fatal(err)
	}
	if err := indep.Commit(srv); err != nil {
		t.Fatalf("independent update: %v", err)
	}
}

// TestInventoryRecoveryDeterministic: a recovered inventory larger than
// CacheSize must keep the most recently cached entries — the same ones
// on every open, in memory and on disk (the losers are deleted from the
// store, so an arbitrary choice would destroy data at random).
func TestInventoryRecoveryDeterministic(t *testing.T) {
	const n = 8
	srv, err := server.New(server.Config{Objects: n, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for c := 0; c <= n; c++ {
		srv.StartCycle() // every stored entry predates the cycle the client hears first
	}
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		store, err := qcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for obj := 0; obj < n; obj++ {
			if err := store.Put(obj, []byte{byte(obj)}, cmatrix.Cycle(obj+1), make([]cmatrix.Cycle, n)); err != nil {
				t.Fatal(err)
			}
		}
		store.Close()
		if store, err = qcache.Open(dir); err != nil {
			t.Fatal(err)
		}
		var hits []int
		c := New(Config{
			Algorithm:     protocol.FMatrix,
			CacheCurrency: 100,
			CacheSize:     4,
			Store:         store,
			ObserveRead: func(obj int, _ cmatrix.Cycle, cacheHit, _ bool) {
				if cacheHit {
					hits = append(hits, obj)
				}
			},
		}, srv.Subscribe(1))
		inv := store.Inventory()
		for obj := 0; obj < n; obj++ {
			if _, ok := inv[obj]; ok != (obj >= 4) {
				t.Fatalf("round %d: store holds object %d = %v; want exactly {4,5,6,7} to survive", round, obj, ok)
			}
		}
		c.AwaitCycle()
		for obj := n - 1; obj >= 0; obj-- {
			txn := c.BeginReadOnly()
			if v, err := txn.Read(obj); err != nil || (obj >= 4 && (len(v) != 1 || v[0] != byte(obj))) {
				t.Fatalf("round %d: read %d = %v, %v", round, obj, v, err)
			}
			txn.Commit()
		}
		if !reflect.DeepEqual(hits, []int{7, 6, 5, 4}) {
			t.Fatalf("round %d: reads served from the recovered cache = %v, want [7 6 5 4]", round, hits)
		}
		c.Cancel()
		store.Close()
	}
}
