package shard

import (
	"bytes"
	"errors"
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
	if snap.Counters["shard_commits_total"] != 1 {
		t.Fatalf("shard_commits_total = %d", snap.Counters["shard_commits_total"])
	}
	// Three participants (read shard 0, write shards 1 and 2) prepared.
	if snap.Counters["server_shard_prepares"] != 3 {
		t.Fatalf("server_shard_prepares = %d", snap.Counters["server_shard_prepares"])
	}
	if snap.Counters["shard1_server_shard_commits"] != 1 {
		t.Fatalf("per-shard prefixed counter missing: %v", snap.Counters)
	}
	if _, ok := snap.Histograms["shard_prepare_ns"]; !ok {
		t.Fatal("shard_prepare_ns histogram not scraped")
	}
}

// TestFleetSingleShardFastPath: a transaction confined to one shard
// must bypass the two-shot protocol entirely.
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
	if snap.Counters["server_shard_prepares"] != 0 {
		t.Fatalf("fast path ran a prepare: %v", snap.Counters)
	}
	if snap.Counters["server_commits"] != 1 {
		t.Fatalf("server_commits = %d", snap.Counters["server_commits"])
	}
}

// lostDecisions forwards every prepare to its shard but delivers no
// decision: what the shards see of a coordinator that crashed between
// shots.
type lostDecisions struct {
	protocol.Participant
}

func (lostDecisions) DecideUpdate(uint64, bool) error {
	return errors.New("coordinator crashed between shots")
}

// TestCoordinatorCrashBetweenShots: a coordinator crash after shot one
// leaves prepares pinned until each shard's TTL aborts them; no value
// ever commits and the database stays writable afterwards.
func TestCoordinatorCrashBetweenShots(t *testing.T) {
	base := server.Config{Algorithm: protocol.FMatrix, ObjectBits: 64, TimestampBits: 32}
	f, _, pump := testFleet(t, 32, 2, base)
	coord, err := NewCoordinator(f.Mapping(),
		[]protocol.Participant{lostDecisions{f.Node(0)}, lostDecisions{f.Node(1)}})
	if err != nil {
		t.Fatal(err)
	}
	a := objOnShard(t, f.Mapping(), 0)
	b := objOnShard(t, f.Mapping(), 1)
	pump()

	if err := coord.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{
		{Obj: a, Value: []byte("lost")},
		{Obj: b, Value: []byte("lost")},
	}}); err == nil {
		t.Fatal("crashed coordinator reported a verdict")
	}
	la, lb := f.Mapping().Local(a), f.Mapping().Local(b)
	if _, pinned := f.Node(0).PinnedBy(la); !pinned {
		t.Fatal("shard 0 not pinned after crash")
	}
	// A local write to the pinned object must refuse until the TTL fires.
	if err := f.Node(0).SubmitUpdate(protocol.UpdateRequest{
		Writes: []protocol.ObjectWrite{{Obj: la, Value: []byte("blocked")}},
	}); !errors.Is(err, server.ErrPinned) {
		t.Fatalf("pinned write: %v", err)
	}
	var cbs []*bcast.CycleBroadcast
	for i := 0; i <= server.PrepareTTL; i++ {
		cbs = pump()
	}
	if _, pinned := f.Node(0).PinnedBy(la); pinned {
		t.Fatal("pin survived the prepare TTL")
	}
	if v := cbs[1].Values[lb]; v != nil {
		t.Fatalf("orphaned prepare committed %q", v)
	}
	snap := f.ObsSnapshot()
	if snap.Counters["server_shard_prepare_expired"] != 2 {
		t.Fatalf("expired = %d", snap.Counters["server_shard_prepare_expired"])
	}
	if err := f.Node(0).SubmitUpdate(protocol.UpdateRequest{
		Writes: []protocol.ObjectWrite{{Obj: la, Value: []byte("after")}},
	}); err != nil {
		t.Fatalf("shard wedged after TTL abort: %v", err)
	}
}

// TestDuplicateDecisionFrames: replaying a decision is idempotent;
// contradicting it is an error.
func TestDuplicateDecisionFrames(t *testing.T) {
	base := server.Config{Algorithm: protocol.FMatrix, ObjectBits: 64, TimestampBits: 32}
	f, r, pump := testFleet(t, 32, 2, base)
	a := objOnShard(t, f.Mapping(), 0)
	b := objOnShard(t, f.Mapping(), 1)
	pump()

	txn := r.BeginUpdate()
	txn.Write(a, []byte("v"))
	txn.Write(b, []byte("v"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// The coordinator used token 1; replay its commit decision.
	if err := f.Node(0).DecideUpdate(1, true); err != nil {
		t.Fatalf("duplicate commit decision: %v", err)
	}
	if err := f.Node(0).DecideUpdate(1, false); !errors.Is(err, server.ErrAlreadyDecided) {
		t.Fatalf("contradictory decision: %v", err)
	}
	if snap := f.ObsSnapshot(); snap.Counters["server_shard_commits"] != 2 {
		t.Fatalf("replay double-committed: %v", snap.Counters)
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
