package sim

import (
	"testing"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// TestSimCacheEviction drives the wheel's read path step by step and
// checks which reads the cache serves. At CacheSize 2 the entry evicted
// must be the oldest-cached one, also after an object left the cache
// (expired, or dropped by an abort) and was cached again: its position
// in the eviction order is that of the fresh copy, not of the first.
func TestSimCacheEviction(t *testing.T) {
	type step struct {
		cycle cmatrix.Cycle // not before the start of this cycle
		obj   int
		abort bool // drop obj as an aborted attempt does, instead of reading it
		hit   bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"expiry then recache", []step{
			{cycle: 1, obj: 1}, {cycle: 5, obj: 2},
			{cycle: 6, obj: 1}, // age 5 > T: expired, cached again
			{cycle: 6, obj: 3}, // evicts 2, the oldest-cached
			{cycle: 6, obj: 1, hit: true}, {cycle: 6, obj: 2},
		}},
		{"abort then recache", []step{
			{cycle: 1, obj: 1}, {cycle: 1, obj: 2},
			{cycle: 1, obj: 1, abort: true},
			{cycle: 2, obj: 1}, {cycle: 2, obj: 3},
			{cycle: 2, obj: 1, hit: true}, {cycle: 2, obj: 2},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(protocol.FMatrix)
			cfg.ServerTxnLength = 0  // no updates: no read ever aborts
			cfg.MeanInterOpDelay = 0 // a read starts where the step puts the clock
			cfg.CacheCurrency = 4
			cfg.CacheSize = 2
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := e.newWheel()
			for i, s := range tc.steps {
				if s.abort {
					e.cache.Remove(s.obj)
					continue
				}
				if start := float64(s.cycle-1) * e.cycleBits; e.now < start {
					e.now = start
				}
				hits := e.cCacheHits.Load()
				w.objRow(0)[0] = int32(s.obj)
				w.validator(0).Reset()
				e.now = w.scheduleRead(0, e.now)
				if ok, err := w.read(0); err != nil || !ok {
					t.Fatalf("step %d: read of %d = %v, %v", i, s.obj, ok, err)
				}
				if hit := e.cCacheHits.Load() > hits; hit != s.hit {
					t.Fatalf("step %d: read of %d at cycle %d served from cache = %v, want %v", i, s.obj, e.cycleOf(e.now), hit, s.hit)
				}
				if e.cache.Len() > cfg.CacheSize {
					t.Fatalf("step %d: %d entries, CacheSize %d", i, e.cache.Len(), cfg.CacheSize)
				}
			}
		})
	}

	// CacheSize 0 over a long run: entries come and go by expiry and
	// abort only, and the eviction order must not remember them — a walk
	// of it (Expire visits every entry in caching order) finds exactly
	// the live entries.
	t.Run("unbounded keeps no ghosts", func(t *testing.T) {
		cfg := smallConfig(protocol.FMatrix)
		cfg.CacheCurrency = 3
		cfg.ClientTxns, cfg.MeasureFrom = 400, 100
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.runWheel()
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHits == 0 || res.Restarts.Sum() == 0 {
			t.Fatalf("degenerate run: %d hits, %v restarts", res.CacheHits, res.Restarts.Sum())
		}
		live := int64(e.cache.Len())
		if live == 0 || live > int64(cfg.Objects) {
			t.Fatalf("%d live entries over %d objects", live, cfg.Objects)
		}
		if kept, dropped := e.cache.Expire(e.cycleOf(e.now)); kept+dropped != live {
			t.Fatalf("eviction order holds %d entries, the cache %d", kept+dropped, live)
		}
	})
}
