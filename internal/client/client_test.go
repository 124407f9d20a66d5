package client

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/bctest"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/core"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

func newPair(t *testing.T, alg protocol.Algorithm, n int, clientCfg Config) (*server.Server, *Client) {
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
	clientCfg.Algorithm = alg
	c := New(clientCfg, srv.Subscribe(64))
	t.Cleanup(srv.Close)
	return srv, c
}

func commitWrite(t *testing.T, srv *server.Server, obj int, val string, reads ...int) {
	t.Helper()
	txn := srv.Begin()
	for _, r := range reads {
		if _, err := txn.Read(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Write(obj, []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadBeforeBroadcastFails(t *testing.T) {
	_, c := newPair(t, protocol.FMatrix, 2, Config{})
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("Read = %v, want ErrNoBroadcast", err)
	}
}

func TestSimpleReadOnlyTxn(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 2, Config{})
	commitWrite(t, srv, 0, "hello")
	srv.StartCycle()
	if _, ok := c.AwaitCycle(); !ok {
		t.Fatal("no cycle")
	}
	txn := c.BeginReadOnly()
	v, err := txn.Read(0)
	if err != nil || string(v) != "hello" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	rs, err := txn.Commit()
	if err != nil || len(rs) != 1 || rs[0].Obj != 0 || rs[0].Cycle != 1 {
		t.Fatalf("Commit = %v, %v", rs, err)
	}
	if _, err := txn.Read(1); !errors.Is(err, ErrTxnFinished) {
		t.Error("read after commit should fail")
	}
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Error("double commit should fail")
	}
	if c.Stats().Reads != 1 {
		t.Errorf("Reads = %d", c.Stats().Reads)
	}
}

func TestReadOutOfRange(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 2, Config{})
	srv.StartCycle()
	c.AwaitCycle()
	txn := c.BeginReadOnly()
	if _, err := txn.Read(5); err == nil {
		t.Error("out-of-range read should fail")
	}
}

// A transaction spanning cycles aborts under Datacycle when a read
// value is overwritten, but F-Matrix lets it proceed when the
// overwriting transaction is independent.
func TestCrossCycleAbortSemantics(t *testing.T) {
	t.Run("datacycle-aborts", func(t *testing.T) {
		srv, c := newPair(t, protocol.Datacycle, 2, Config{})
		srv.StartCycle()
		c.AwaitCycle()
		txn := c.BeginReadOnly()
		if _, err := txn.Read(0); err != nil {
			t.Fatal(err)
		}
		commitWrite(t, srv, 0, "new") // overwrites the read object
		srv.StartCycle()
		c.AwaitCycle()
		if _, err := txn.Read(1); !errors.Is(err, ErrInconsistentRead) {
			t.Fatalf("Read = %v, want ErrInconsistentRead", err)
		}
		if c.Stats().ReadAborts != 1 {
			t.Errorf("ReadAborts = %d", c.Stats().ReadAborts)
		}
	})
	t.Run("fmatrix-proceeds", func(t *testing.T) {
		srv, c := newPair(t, protocol.FMatrix, 2, Config{})
		srv.StartCycle()
		c.AwaitCycle()
		txn := c.BeginReadOnly()
		if _, err := txn.Read(0); err != nil {
			t.Fatal(err)
		}
		commitWrite(t, srv, 0, "new") // independent of object 1
		srv.StartCycle()
		c.AwaitCycle()
		if _, err := txn.Read(1); err != nil {
			t.Fatalf("F-Matrix should allow the read: %v", err)
		}
	})
	t.Run("fmatrix-aborts-on-dependence", func(t *testing.T) {
		srv, c := newPair(t, protocol.FMatrix, 2, Config{})
		srv.StartCycle()
		c.AwaitCycle()
		txn := c.BeginReadOnly()
		if _, err := txn.Read(0); err != nil {
			t.Fatal(err)
		}
		commitWrite(t, srv, 0, "new")    // overwrite obj 0
		commitWrite(t, srv, 1, "dep", 0) // writer of obj 1 reads obj 0
		srv.StartCycle()
		c.AwaitCycle()
		if _, err := txn.Read(1); !errors.Is(err, ErrInconsistentRead) {
			t.Fatalf("Read = %v, want ErrInconsistentRead", err)
		}
	})
}

func TestClientUpdateTxn(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 3, Config{})
	srv.StartCycle()
	c.AwaitCycle()
	txn := c.BeginUpdate()
	v, err := txn.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(1, append(v, 'x')); err != nil {
		t.Fatal(err)
	}
	// Read-own-write.
	if got, _ := txn.Read(1); string(got) != "x" {
		t.Errorf("read-own-write = %q", got)
	}
	if err := txn.Commit(srv); err != nil {
		t.Fatal(err)
	}
	// Value installed server-side, visible next cycle.
	cb := srv.StartCycle()
	if string(cb.Values[1]) != "x" {
		t.Errorf("server value = %q", cb.Values[1])
	}

	// A second client update that read obj 1 at cycle 1 must be rejected
	// (obj 1 committed during cycle 1).
	c.AwaitCycle()
	txn2 := c.BeginUpdate()
	// Force the read-set cycle to 1 by replaying a cycle-1 read: the
	// client read obj 1 during cycle 1 in this scenario.
	req := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 1, Cycle: 1}},
		Writes: []protocol.ObjectWrite{{Obj: 2, Value: []byte("y")}},
	}
	if err := srv.SubmitUpdate(req); !errors.Is(err, server.ErrConflict) {
		t.Fatalf("SubmitUpdate = %v, want conflict", err)
	}
	txn2.Abort()
	if err := txn2.Commit(srv); !errors.Is(err, ErrTxnFinished) {
		t.Error("commit after abort should fail")
	}

	// Pure reader commits locally without an uplink round-trip.
	txn3 := c.BeginUpdate()
	if _, err := txn3.Read(2); err != nil {
		t.Fatal(err)
	}
	before := srv.Obs().Counter("server_uplink_requests").Load()
	if err := txn3.Commit(srv); err != nil {
		t.Fatal(err)
	}
	if srv.Obs().Counter("server_uplink_requests").Load() != before {
		t.Error("read-only update txn must not use the uplink")
	}
}

func TestUpdateTxnWriteValidation(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 2, Config{})
	srv.StartCycle()
	c.AwaitCycle()
	txn := c.BeginUpdate()
	if err := txn.Write(9, nil); err == nil {
		t.Error("out-of-range write should fail")
	}
	txn.Abort()
	if err := txn.Write(0, nil); !errors.Is(err, ErrTxnFinished) {
		t.Error("write after abort should fail")
	}
}

func TestPollCycle(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 2, Config{})
	if c.PollCycle() {
		t.Error("PollCycle with nothing pending should report false")
	}
	srv.StartCycle()
	srv.StartCycle()
	if !c.PollCycle() {
		t.Error("PollCycle should consume pending cycles")
	}
	if c.Current().Number != 2 {
		t.Errorf("Current = %d, want 2 (newest)", c.Current().Number)
	}
}

func TestCacheHitAndCurrencyEviction(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 2, Config{CacheCurrency: 2})
	commitWrite(t, srv, 0, "v0")
	srv.StartCycle()
	c.AwaitCycle()
	// First read populates the cache.
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	// Second transaction hits the cache.
	txn2 := c.BeginReadOnly()
	v, err := txn2.Read(0)
	if err != nil || string(v) != "v0" {
		t.Fatal(err)
	}
	txn2.Commit()
	if c.Stats().CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", c.Stats().CacheHits)
	}
	// After T cycles pass, the entry is evicted and the read goes back
	// on air, observing the newer value.
	commitWrite(t, srv, 0, "v1")
	for i := 0; i < 3; i++ {
		srv.StartCycle()
		c.AwaitCycle()
	}
	txn3 := c.BeginReadOnly()
	v3, err := txn3.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(v3) != "v1" {
		t.Errorf("stale cache served: %q", v3)
	}
	if c.Stats().CacheHits != 1 {
		t.Errorf("CacheHits = %d, want still 1", c.Stats().CacheHits)
	}
}

// A cached (older) read combined with a fresh on-air read must still be
// validated: if the fresh value depends on an overwrite of the cached
// read, the transaction aborts.
func TestCacheConsistencyValidation(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 2, Config{CacheCurrency: 10})
	srv.StartCycle()
	c.AwaitCycle()
	// Cache object 0 at cycle 1 (initial value).
	warm := c.BeginReadOnly()
	if _, err := warm.Read(0); err != nil {
		t.Fatal(err)
	}
	warm.Commit()
	// Overwrite obj 0, then commit a dependent writer of obj 1.
	commitWrite(t, srv, 0, "new")
	commitWrite(t, srv, 1, "dep", 0)
	srv.StartCycle()
	c.AwaitCycle()
	// New transaction: fresh read of obj 1 (cycle 2), then cached read of
	// obj 0 (cycle 1). The bidirectional check must reject one of them.
	txn := c.BeginReadOnly()
	if _, err := txn.Read(1); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(0); !errors.Is(err, ErrInconsistentRead) {
		t.Fatalf("cached read = %v, want ErrInconsistentRead", err)
	}
}

func TestCacheSizeEviction(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 4, Config{CacheCurrency: 100, CacheSize: 2})
	srv.StartCycle()
	c.AwaitCycle()
	txn := c.BeginReadOnly()
	for obj := 0; obj < 3; obj++ { // third insert evicts the first
		if _, err := txn.Read(obj); err != nil {
			t.Fatal(err)
		}
	}
	txn.Commit()
	if got := c.cache.Len(); got != 2 {
		t.Fatalf("cache len = %d, want 2", got)
	}
	if _, _, _, ok := c.cache.Get(0, c.cur.Number); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, _, _, ok := c.cache.Get(2, c.cur.Number); !ok {
		t.Error("newest entry should be cached")
	}
}

func TestRunReadOnlyRetries(t *testing.T) {
	srv, c := newPair(t, protocol.Datacycle, 2, Config{})
	srv.StartCycle()
	c.AwaitCycle()
	// First attempt: between the two reads, object 0 is overwritten and
	// the client advances a cycle, so the Datacycle condition fails.
	// One extra published cycle feeds the retry's AwaitCycle; the second
	// attempt sees quiet data and commits.
	attempt := 0
	rs, err := c.RunReadOnly(0, func(txn *ReadTxn) error {
		attempt++
		if _, err := txn.Read(0); err != nil {
			return err
		}
		if attempt == 1 {
			commitWrite(t, srv, 0, "v")
			srv.StartCycle() // cycle 2: consumed below
			srv.StartCycle() // cycle 3: left for the retry
			if _, ok := c.AwaitCycle(); !ok {
				t.Fatal("tuned out")
			}
		}
		_, err := txn.Read(1)
		return err
	})
	if err != nil {
		t.Fatalf("RunReadOnly: %v (attempts %d)", err, attempt)
	}
	if attempt != 2 {
		t.Fatalf("attempts = %d, want 2", attempt)
	}
	if len(rs) != 2 {
		t.Fatalf("read-set = %v", rs)
	}
}

func TestRunReadOnlyAttemptLimit(t *testing.T) {
	srv, c := newPair(t, protocol.Datacycle, 2, Config{})
	srv.StartCycle()
	c.AwaitCycle()
	// Every attempt manufactures its own conflict and leaves one cycle
	// buffered for the next attempt.
	attempts := 0
	_, err := c.RunReadOnly(2, func(txn *ReadTxn) error {
		attempts++
		if _, err := txn.Read(0); err != nil {
			return err
		}
		commitWrite(t, srv, 0, "x")
		srv.StartCycle()
		srv.StartCycle()
		if _, ok := c.AwaitCycle(); !ok {
			t.Fatal("tuned out")
		}
		_, err := txn.Read(1)
		return err
	})
	if err == nil {
		t.Fatal("expected attempt-limit failure")
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	// Non-retryable errors pass through immediately.
	calls := 0
	_, err = c.RunReadOnly(5, func(txn *ReadTxn) error {
		calls++
		_, err := txn.Read(99)
		return err
	})
	if err == nil || calls != 1 {
		t.Fatalf("out-of-range read should fail once: %v after %d calls", err, calls)
	}
}

func TestRunReadOnlyTunedOut(t *testing.T) {
	srv, c := newPair(t, protocol.Datacycle, 2, Config{})
	srv.StartCycle()
	c.AwaitCycle()
	c.Cancel()
	first := true
	_, err := c.RunReadOnly(0, func(txn *ReadTxn) error {
		if first {
			first = false
			return ErrInconsistentRead // force a retry against a dead tuner
		}
		return nil
	})
	if !errors.Is(err, ErrTunedOut) {
		t.Fatalf("err = %v, want ErrTunedOut", err)
	}
}

func TestPerObjectCurrency(t *testing.T) {
	// Object 0 tolerates 10-cycle staleness, object 1 none.
	srv, c := newPair(t, protocol.FMatrix, 2, Config{
		CacheCurrency: 10,
		CacheCurrencyOf: func(obj int) cmatrix.Cycle {
			if obj == 0 {
				return 10
			}
			return 0
		},
	})
	srv.StartCycle()
	c.AwaitCycle()
	warm := c.BeginReadOnly()
	warm.Read(0)
	warm.Read(1)
	warm.Commit()
	srv.StartCycle()
	c.AwaitCycle()
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(1); err != nil {
		t.Fatal(err)
	}
	// Object 0 came from cache; object 1 had to go back on the air.
	if c.Stats().CacheHits != 1 {
		t.Errorf("CacheHits = %d, want exactly 1 (obj 0 only)", c.Stats().CacheHits)
	}
}

func TestCachedVectorAlgorithm(t *testing.T) {
	// Caching with a vector protocol uses the conservative snapshot
	// validator but must still work end to end.
	srv, c := newPair(t, protocol.RMatrix, 2, Config{CacheCurrency: 5})
	commitWrite(t, srv, 0, "a")
	srv.StartCycle()
	c.AwaitCycle()
	t1 := c.BeginReadOnly()
	if _, err := t1.Read(0); err != nil {
		t.Fatal(err)
	}
	t1.Commit()
	srv.StartCycle()
	c.AwaitCycle()
	t2 := c.BeginReadOnly()
	if _, err := t2.Read(0); err != nil { // cache hit at cycle 1
		t.Fatal(err)
	}
	if _, err := t2.Read(1); err != nil { // on-air at cycle 2, no conflicts
		t.Fatal(err)
	}
	if c.Stats().CacheHits != 1 {
		t.Errorf("CacheHits = %d", c.Stats().CacheHits)
	}
}

func TestCancelTunesOut(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 2, Config{})
	c.Cancel()
	srv.StartCycle()
	if _, ok := c.AwaitCycle(); ok {
		t.Error("cancelled client should see a closed channel")
	}
}

// End-to-end audit: many concurrent read-only clients and a server
// committing updates; every committed client read-set must induce a
// history the protocol's criterion accepts.
func TestLiveRunInducedHistoryConsistent(t *testing.T) {
	for _, alg := range []protocol.Algorithm{protocol.FMatrix, protocol.RMatrix, protocol.Datacycle} {
		t.Run(alg.String(), func(t *testing.T) {
			const n, clients, txnsPerClient = 5, 4, 25
			srv, err := server.New(server.Config{
				Objects: n, ObjectBits: 64, Algorithm: alg, Audit: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			var mu sync.Mutex
			var committedReadSets [][]protocol.ReadAt

			var clientWG, serverWG sync.WaitGroup
			stop := make(chan struct{})
			for ci := 0; ci < clients; ci++ {
				clientWG.Add(1)
				go func(ci int) {
					defer clientWG.Done()
					rng := rand.New(rand.NewSource(int64(100 + ci)))
					c := New(Config{Algorithm: alg}, srv.Subscribe(256))
					defer c.Cancel()
					for done := 0; done < txnsPerClient; {
						if _, ok := c.AwaitCycle(); !ok {
							return
						}
						txn := c.BeginReadOnly()
						okAll := true
						for _, obj := range rng.Perm(n)[:1+rng.Intn(3)] {
							if _, err := txn.Read(obj); err != nil {
								okAll = false
								break
							}
							// Sometimes advance mid-transaction so reads
							// span cycles and conflicts can arise.
							if rng.Float64() < 0.5 {
								c.PollCycle()
							}
						}
						if !okAll {
							continue // aborted: restart on a later cycle
						}
						rs, err := txn.Commit()
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						committedReadSets = append(committedReadSets, rs)
						mu.Unlock()
						done++
					}
				}(ci)
			}
			// Server loop: cycles plus random update transactions.
			serverWG.Add(1)
			go func() {
				defer serverWG.Done()
				rng := rand.New(rand.NewSource(999))
				const maxCommits = 400 // keep the audit history checkable
				for {
					select {
					case <-stop:
						return
					default:
					}
					srv.StartCycle()
					if srv.Obs().Counter("server_commits").Load() >= maxCommits {
						continue
					}
					for k := 0; k < rng.Intn(3); k++ {
						txn := srv.Begin()
						for _, o := range rng.Perm(n)[:rng.Intn(2)] {
							txn.Read(o)
						}
						for _, o := range rng.Perm(n)[:1+rng.Intn(2)] {
							txn.Write(o, []byte{byte(k)})
						}
						if err := txn.Commit(); err != nil && !errors.Is(err, server.ErrConflict) {
							t.Error(err)
							return
						}
					}
				}
			}()

			// Wait for the clients, then stop the server loop and audit.
			clientWG.Wait()
			close(stop)
			serverWG.Wait()

			log := srv.AuditLog()
			h := bctest.InducedHistory(log, committedReadSets)
			switch alg {
			case protocol.Datacycle:
				if v := core.Serializable(h); !v.OK {
					t.Fatalf("Datacycle run produced a non-serializable history: %s", v.Reason)
				}
			default:
				if v := core.Approx(h); !v.OK {
					t.Fatalf("%v run violates APPROX: %s", alg, v.Reason)
				}
				if v := core.ConflictSerializable(h.UpdateSubhistory()); !v.OK {
					t.Fatalf("update sub-history not serializable: %s", v.Reason)
				}
			}
			if len(committedReadSets) != clients*txnsPerClient {
				t.Fatalf("committed %d read-only txns, want %d", len(committedReadSets), clients*txnsPerClient)
			}
		})
	}
}

// TestReadReturnsPrivateCopy: what Read hands out is the caller's to
// scribble on. A cycle's Values are shared (in process with the
// server's committed state, off a tuner with the received frame), so
// neither the cycle every other listener holds, nor the cache entry the
// miss created, nor a later read may see the scribble.
func TestReadReturnsPrivateCopy(t *testing.T) {
	srv, c := newPair(t, protocol.FMatrix, 2, Config{CacheCurrency: 4})
	commitWrite(t, srv, 0, "precious")
	cb := srv.StartCycle()
	c.AwaitCycle()
	read := func() []byte {
		t.Helper()
		txn := c.BeginReadOnly()
		v, err := txn.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		txn.Commit()
		return v
	}
	miss := read() // off the air, and into the cache
	copy(miss, "SCRIBBLE")
	if string(cb.Values[0]) != "precious" {
		t.Fatalf("scribbling on a read changed the published cycle: %q", cb.Values[0])
	}
	hit := read()
	if c.Stats().CacheHits != 1 || string(hit) != "precious" {
		t.Fatalf("second read = %q with %d cache hits; the first read's buffer is the cache entry", hit, c.Stats().CacheHits)
	}
	copy(hit, "SCRIBBLE")
	if again := read(); string(again) != "precious" {
		t.Fatalf("third read = %q: a cache hit handed out the entry itself", again)
	}
	if v, err := srv.Begin().Read(0); err != nil || string(v) != "precious" {
		t.Fatalf("the server's committed value is now %q, %v", v, err)
	}
	if next := srv.StartCycle(); string(next.Values[0]) != "precious" || string(cb.Values[0]) != "precious" {
		t.Fatalf("cycle values %q then %q", cb.Values[0], next.Values[0])
	}
}

// TestReadTxnRecycle: a finished transaction hands its validator to the
// next Begin, and keeps no way to reach it. A and B interleave with C,
// which reuses A's validator; every read set holds its own reads only,
// and A refuses further work. Every validator kind is recycled alike.
func TestReadTxnRecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		alg  protocol.Algorithm
		cfg  Config
	}{
		{"fmatrix-cached", protocol.FMatrix, Config{CacheCurrency: 4}},
		{"fmatrix", protocol.FMatrix, Config{}},
		{"rmatrix", protocol.RMatrix, Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, c := newPair(t, tc.alg, 6, tc.cfg)
			srv.StartCycle()
			c.AwaitCycle()
			read := func(txn *ReadTxn, objs ...int) {
				t.Helper()
				for _, obj := range objs {
					if _, err := txn.Read(obj); err != nil {
						t.Fatalf("read %d: %v", obj, err)
					}
				}
			}
			commit := func(txn *ReadTxn, want ...int) {
				t.Helper()
				rs, err := txn.Commit()
				if err != nil {
					t.Fatal(err)
				}
				var got []int
				for _, r := range rs {
					got = append(got, r.Obj)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("read set %v, want %v", got, want)
				}
			}
			a, b := c.BeginReadOnly(), c.BeginReadOnly()
			read(a, 0, 1)
			read(b, 2)
			shared := a.val
			commit(a, 0, 1)
			cc := c.BeginReadOnly()
			if cc.val != shared {
				t.Fatal("C did not reuse A's validator")
			}
			if _, err := a.Read(3); !errors.Is(err, ErrTxnFinished) {
				t.Fatalf("read on A after commit = %v, want ErrTxnFinished", err)
			}
			if _, err := a.Commit(); !errors.Is(err, ErrTxnFinished) {
				t.Fatalf("commit on A after commit = %v, want ErrTxnFinished", err)
			}
			read(cc, 4)
			read(b, 5)
			commit(b, 2, 5)
			commit(cc, 4)
		})
	}
}

// TestAbortedReadTxnRecycles: the read that fails validation finishes
// its transaction, hands the validator on, and the transaction refuses
// further reads.
func TestAbortedReadTxnRecycles(t *testing.T) {
	srv, c := newPair(t, protocol.Datacycle, 2, Config{})
	srv.StartCycle()
	c.AwaitCycle()
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	val := txn.val
	commitWrite(t, srv, 0, "new") // overwrites the read object
	srv.StartCycle()
	c.AwaitCycle()
	if _, err := txn.Read(1); !errors.Is(err, ErrInconsistentRead) {
		t.Fatalf("Read = %v, want ErrInconsistentRead", err)
	}
	if _, err := txn.Read(1); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("read after the abort = %v, want ErrTxnFinished", err)
	}
	next := c.BeginReadOnly()
	if next.val != val {
		t.Fatal("the aborted transaction's validator was not recycled")
	}
	if rs, err := next.Commit(); err != nil || len(rs) != 0 {
		t.Fatalf("fresh transaction on the recycled validator commits %v, %v; want an empty read set", rs, err)
	}
}

// readCachedClient is the read-cached shape as a tuner hears it: 64
// objects of 64 bytes, one update a cycle, every cycle encoded and read
// back with wire.ViewCycle onto the client's medium, a currency-8,
// 48-entry cache with a store, and a fixed pseudo-random read sequence
// for readTxn to walk (a transaction a read refuses is run again at
// once: its objects left the cache, so the rerun reads the air). next
// commits the cycle's update and delivers the next cycle; AwaitCycle
// makes it current.
func readCachedClient(b *testing.B) (next func(), c *Client, readTxn func(i int)) {
	const objects, reads = 64, 16
	initial := make([][]byte, objects)
	for obj := range initial {
		initial[obj] = make([]byte, 64)
		initial[obj][0] = byte(obj)
	}
	srv, err := server.New(server.Config{Objects: objects, ObjectBits: 512, Algorithm: protocol.FMatrix, InitialValues: initial})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	store, err := qcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	medium := bcast.NewMedium()
	b.Cleanup(medium.Close)
	c = New(Config{Algorithm: protocol.FMatrix, CacheCurrency: 8, CacheSize: 48, Store: store}, medium.Subscribe(4))
	rng := rand.New(rand.NewSource(7))
	ids := make([]int, 64*reads)
	for i := range ids {
		ids[i] = rng.Intn(objects)
	}
	updates, value := rand.New(rand.NewSource(8)), make([]byte, 64)
	next = func() {
		txn := srv.Begin()
		if _, err := txn.Read(updates.Intn(objects)); err != nil {
			b.Fatal(err)
		}
		updates.Read(value)
		if err := txn.Write(updates.Intn(objects), value); err != nil {
			b.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
		frame, err := wire.EncodeCycle(srv.StartCycle())
		if err != nil {
			b.Fatal(err)
		}
		cb, err := wire.ViewCycle(frame)
		if err != nil {
			b.Fatal(err)
		}
		medium.Publish(cb)
	}
	readTxn = func(i int) {
	again:
		txn := c.BeginReadOnly()
		for _, obj := range ids[i%64*reads:][:reads] {
			if _, err := txn.Read(obj); errors.Is(err, ErrInconsistentRead) {
				goto again
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	return next, c, readTxn
}

// BenchmarkReadTxn is one read-cached read transaction: 16 reads, a new
// cycle every 16 transactions. The timer stops around the cycle's
// arrival, so the store's flush at the edge is not in it — see
// BenchmarkCachedCycle.
func BenchmarkReadTxn(b *testing.B) {
	const perCycle = 16
	next, c, readTxn := readCachedClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perCycle == 0 {
			b.StopTimer()
			next()
			c.AwaitCycle()
			b.StartTimer()
		}
		readTxn(i)
	}
}

// BenchmarkCachedCycle is one whole read-cached cycle on the client:
// AwaitCycle, with the cache's Expire and the store's flush, then 16
// transactions of 16 reads. The server's update, StartCycle and the
// frame's encoding and view are outside the timer.
func BenchmarkCachedCycle(b *testing.B) {
	const perCycle = 16
	next, c, readTxn := readCachedClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next()
		b.StartTimer()
		c.AwaitCycle()
		for j := 0; j < perCycle; j++ {
			readTxn(i*perCycle + j)
		}
	}
}
