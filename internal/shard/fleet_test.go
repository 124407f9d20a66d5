package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/client"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// testFleet builds a k-shard F-Matrix fleet over n objects with a
// router of cache-free clients, and returns a pump that advances every
// shard one lockstep cycle and drains the clients.
func testFleet(t *testing.T, n, k int, base server.Config) (*Fleet, *Router, func() []*bcast.CycleBroadcast) {
	t.Helper()
	base.Objects = n
	f, err := NewFleet(FleetConfig{Base: base, Seed: 11, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	clients := make([]*client.Client, k)
	for s := 0; s < k; s++ {
		clients[s] = client.New(client.Config{Algorithm: base.Algorithm}, f.Subscribe(s, 64))
	}
	r, err := NewRouter(f.Mapping(), clients, f.Coordinator())
	if err != nil {
		t.Fatal(err)
	}
	pump := func() []*bcast.CycleBroadcast {
		cbs := f.StartCycle()
		for _, c := range clients {
			c.PollCycle()
		}
		return cbs
	}
	return f, r, pump
}

// objOnShard finds the lowest global object id placed on shard s.
func objOnShard(t *testing.T, m *Mapping, s int) int {
	t.Helper()
	for obj := 0; obj < m.N(); obj++ {
		if m.ShardOf(obj) == s {
			return obj
		}
	}
	t.Fatalf("no object on shard %d", s)
	return -1
}

// TestFleetCrossShardCommit runs a whole cross-shard update through the
// router and coordinator, then reads it back through the router.
func TestFleetCrossShardCommit(t *testing.T) {
	base := server.Config{Algorithm: protocol.FMatrix, ObjectBits: 64, TimestampBits: 32, Audit: true}
	f, r, pump := testFleet(t, 32, 4, base)
	a := objOnShard(t, f.Mapping(), 0)
	b := objOnShard(t, f.Mapping(), 1)
	c := objOnShard(t, f.Mapping(), 2)
	pump()

	txn := r.BeginUpdate()
	if _, err := txn.Read(a); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(b, []byte("bee")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(c, []byte("sea")); err != nil {
		t.Fatal(err)
	}
	if got, err := txn.Read(b); err != nil || !bytes.Equal(got, []byte("bee")) {
		t.Fatalf("read-your-writes: %q, %v", got, err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("cross-shard commit: %v", err)
	}

	pump()
	reads, err := r.RunReadOnly(4, func(rt *ReadTxn) error {
		for _, obj := range []int{b, c} {
			if _, err := rt.Read(obj); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(reads) != 2 || reads[0].Obj > reads[1].Obj {
		t.Fatalf("global read set %+v", reads)
	}
	cbs := pump()
	if vb := cbs[1].Values[f.Mapping().Local(b)]; !bytes.Equal(vb, []byte("bee")) {
		t.Fatalf("shard 1 broadcasts %q", vb)
	}

	snap := f.ObsSnapshot()
	if snap.Counters["shard_commits_total"] != 1 || snap.Counters["shard_cross_total"] != 1 {
		t.Fatalf("shard_commits_total = %d, shard_cross_total = %d; want 1, 1",
			snap.Counters["shard_commits_total"], snap.Counters["shard_cross_total"])
	}
	// Three shards ran the commit rule (read shard 0, write shards 1
	// and 2); only the two with writes installed.
	if snap.Counters["server_uplink_requests"] != 3 || snap.Counters["server_commits"] != 2 {
		t.Fatalf("server_uplink_requests = %d, server_commits = %d; want 3, 2",
			snap.Counters["server_uplink_requests"], snap.Counters["server_commits"])
	}
	if snap.Counters["shard1_server_commits"] != 1 {
		t.Fatalf("per-shard prefixed counter missing: %v", snap.Counters)
	}
	if _, ok := snap.Histograms["shard_commit_ns"]; !ok {
		t.Fatal("shard_commit_ns histogram not scraped")
	}
}

// TestFleetSingleShardFastPath: a transaction confined to one shard
// must take the shard's own SubmitUpdate, not the cross-shard path.
func TestFleetSingleShardFastPath(t *testing.T) {
	base := server.Config{Algorithm: protocol.FMatrix, ObjectBits: 64, TimestampBits: 32}
	f, r, pump := testFleet(t, 32, 4, base)
	a := objOnShard(t, f.Mapping(), 0)
	pump()

	txn := r.BeginUpdate()
	if _, err := txn.Read(a); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(a, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := f.ObsSnapshot()
	if snap.Counters["shard_commits_total"] != 1 {
		t.Fatalf("coordinator did not count the fast-path commit: %v", snap.Counters)
	}
	if snap.Counters["shard_cross_total"] != 0 {
		t.Fatalf("fast path counted a cross-shard submission: %v", snap.Counters)
	}
	if snap.Counters["server_commits"] != 1 {
		t.Fatalf("server_commits = %d", snap.Counters["server_commits"])
	}
}

// TestCrossShardAlignment: a multi-shard read-only transaction whose
// early read is overwritten before its latest read cannot align on any
// serialization point and must abort — and the abort must be the
// alignment clause's: each shard's own validation passed, and the
// cross-shard check rejected.
func TestCrossShardAlignment(t *testing.T) {
	base := server.Config{Algorithm: protocol.FMatrix, ObjectBits: 64, TimestampBits: 32}
	f, r, pump := testFleet(t, 32, 2, base)
	a := objOnShard(t, f.Mapping(), 0)
	b := objOnShard(t, f.Mapping(), 1)
	pump() // cycle 1

	run := func() error {
		txn := r.BeginReadOnly()
		if _, err := txn.Read(a); err != nil { // cycle 1 on shard 0
			return err
		}
		// a is overwritten before the transaction reads b.
		if err := f.Node(0).SubmitUpdate(protocol.UpdateRequest{
			Writes: []protocol.ObjectWrite{{Obj: f.Mapping().Local(a), Value: []byte("new")}},
		}); err != nil {
			return err
		}
		pump()                                 // cycle 2 carries the overwrite
		if _, err := txn.Read(b); err != nil { // cycle 2 on shard 1
			return err
		}
		_, err := txn.Commit()
		return err
	}
	if err := run(); !errors.Is(err, client.ErrInconsistentRead) {
		t.Fatalf("misaligned reads committed: %v", err)
	} else if !strings.Contains(err.Error(), "cannot align") {
		t.Fatalf("misaligned reads aborted before the alignment check: %v", err)
	}

	// The benign schedule — no intervening write — aligns fine.
	txn := r.BeginReadOnly()
	if _, err := txn.Read(a); err != nil {
		t.Fatal(err)
	}
	pump()
	if _, err := txn.Read(b); err != nil {
		t.Fatal(err)
	}
	reads, err := txn.Commit()
	if err != nil {
		t.Fatalf("benign cross-cycle reads aborted: %v", err)
	}
	if len(reads) != 2 {
		t.Fatalf("read set %+v", reads)
	}
}

// TestAddrPlan pins the fleet's listen plan — the one rule bcserver
// (listening) and bcclient (tuning) both derive their per-shard
// addresses from: role port + 2s, the two roles interleaved so adjacent
// base ports never collide, and a base without a numeric port refused
// with the same error on either side.
func TestAddrPlan(t *testing.T) {
	want := map[int][2][]string{
		1: {{"127.0.0.1:7070"}, {"127.0.0.1:7071"}},
		4: {{"127.0.0.1:7070", "127.0.0.1:7072", "127.0.0.1:7074", "127.0.0.1:7076"},
			{"127.0.0.1:7071", "127.0.0.1:7073", "127.0.0.1:7075", "127.0.0.1:7077"}},
	}
	for k, roles := range want {
		used := map[string]bool{}
		for role, base := range []string{"127.0.0.1:7070", "127.0.0.1:7071"} {
			for s := 0; s < k; s++ {
				got, err := Addr(base, s)
				if err != nil || got != roles[role][s] {
					t.Fatalf("k=%d: Addr(%q, %d) = %q, %v; want %q", k, base, s, got, err, roles[role][s])
				}
				if used[got] {
					t.Fatalf("k=%d: %s is assigned twice", k, got)
				}
				used[got] = true
			}
		}
	}
	_, err := Addr("localhost:bcast", 2)
	const text = `address "localhost:bcast" needs a numeric port to derive per-shard ports: strconv.Atoi: parsing "bcast": invalid syntax`
	if err == nil || err.Error() != text {
		t.Fatalf("non-numeric port: got %v, want %q", err, text)
	}
	if _, err := Addr("no-port", 0); err == nil {
		t.Fatal("an address without a port must be refused")
	}
}

// TestFleetEdgeSeparatesCrossShardCommits is the fleet's cycle edge
// against a committer of cross-shard pairs: every commit writes one
// value to a (shard 0) and b (shard 1), while the test runs 20,000
// fleet edges. An edge advances every shard under all of the shard
// locks, so each cycle it publishes carries a and b from one commit.
// An edge that advanced the shards one lock at a time let a commit land
// between them, and some cycles carried a from one commit and b from
// the next.
func TestFleetEdgeSeparatesCrossShardCommits(t *testing.T) {
	const edges = 20_000
	base := server.Config{Objects: 32, Algorithm: protocol.FMatrix, ObjectBits: 64, TimestampBits: 32}
	f, err := NewFleet(FleetConfig{Base: base, Seed: 11, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := f.Mapping()
	a, b := objOnShard(t, m, 0), objOnShard(t, m, 1)

	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		commits := 0
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- commits
				return
			default:
			}
			v := []byte(fmt.Sprint(i))
			req := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: a, Value: v}, {Obj: b, Value: v}}}
			if err := f.Coordinator().SubmitUpdate(req); err != nil {
				t.Error(err)
			} else {
				commits++
			}
		}
	}()
	torn, first := 0, ""
	for range edges {
		cbs := f.StartCycle()
		va, vb := cbs[0].Values[m.Local(a)], cbs[1].Values[m.Local(b)]
		if !bytes.Equal(va, vb) {
			if torn++; torn == 1 {
				first = fmt.Sprintf("cycle %d carries a = %q, b = %q", cbs[0].Number, va, vb)
			}
		}
	}
	close(stop)
	if commits := <-done; commits == 0 {
		t.Fatal("the committer never committed: the edge met no cross-shard commit")
	}
	if torn > 0 {
		t.Fatalf("%d of %d fleet cycles carry a and b from different commits; first: %s", torn, edges, first)
	}
}

// TestFleetEdgeHoldsWhileAnyShardIsClosed: the fleet's clock is one
// clock, so once any shard is closed the edge advances none of them and
// returns no cycle (which ends bcserver's tick through Deliver).
func TestFleetEdgeHoldsWhileAnyShardIsClosed(t *testing.T) {
	base := server.Config{Objects: 32, Algorithm: protocol.FMatrix, ObjectBits: 64, TimestampBits: 32}
	f, err := NewFleet(FleetConfig{Base: base, Seed: 11, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.StartCycle()
	f.Node(1).Close()
	for s, cb := range f.StartCycle() {
		if cb != nil {
			t.Fatalf("shard %d published cycle %d with shard 1 closed", s, cb.Number)
		}
	}
	if c := f.Node(0).CurrentCycle(); c != 1 {
		t.Fatalf("shard 0 is at cycle %d with shard 1 closed, want 1", c)
	}
}
