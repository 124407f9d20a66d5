package netcast

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"broadcastcc/internal/bctest"
	"broadcastcc/internal/client"
	"broadcastcc/internal/core"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

func newNetServer(t *testing.T, alg protocol.Algorithm, n int) (*server.Server, *Server) {
	t.Helper()
	bsrv, err := server.New(server.Config{Objects: n, ObjectBits: 64, Algorithm: alg, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ns.Close()
		bsrv.Close()
	})
	return bsrv, ns
}

func awaitSubscribers(t *testing.T, ns *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ns.Subscribers() < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d subscribers connected", ns.Subscribers(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	// Oversized frames are rejected on both ends.
	if err := WriteFrame(&buf, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized write should fail")
	}
	var evil bytes.Buffer
	evil.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&evil); err == nil {
		t.Error("oversized length prefix should fail")
	}
	var short bytes.Buffer
	short.Write([]byte{0, 0, 0, 9, 'x'})
	if _, err := ReadFrame(&short); err == nil {
		t.Error("truncated frame should fail")
	}
}

func TestServeRejectsFMatrixNo(t *testing.T) {
	bsrv, err := server.New(server.Config{Objects: 2, ObjectBits: 64, Algorithm: protocol.FMatrixNo})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	if _, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0"); err == nil {
		t.Fatal("F-Matrix-No must not be servable over a real wire")
	}
}

func TestBroadcastOverTCP(t *testing.T) {
	bsrv, ns := newNetServer(t, protocol.FMatrix, 4)

	// Seed a value before the first cycle.
	txn := bsrv.Begin()
	if err := txn.Write(0, []byte("net-hi")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	tuner, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	cli := client.New(client.Config{Algorithm: protocol.FMatrix}, tuner.Subscribe(8))
	awaitSubscribers(t, ns, 1)

	if n, err := ns.Step(); err != nil || n != 1 {
		t.Fatalf("Step = %d, %v", n, err)
	}
	if _, ok := cli.AwaitCycle(); !ok {
		t.Fatal("no cycle received")
	}
	rd := cli.BeginReadOnly()
	v, err := rd.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	// Wire slots are fixed width: the value is zero-padded to 8 bytes.
	if !strings.HasPrefix(string(v), "net-hi") {
		t.Fatalf("read %q", v)
	}
	if _, err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUplinkOverTCP(t *testing.T) {
	bsrv, ns := newNetServer(t, protocol.RMatrix, 4)
	tuner, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	cli := client.New(client.Config{Algorithm: protocol.RMatrix}, tuner.Subscribe(8))
	uplink, err := DialUplink(ns.UplinkAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer uplink.Close()
	awaitSubscribers(t, ns, 1)

	if _, err := ns.Step(); err != nil {
		t.Fatal(err)
	}
	cli.AwaitCycle()
	upd := cli.BeginUpdate()
	if _, err := upd.Read(1); err != nil {
		t.Fatal(err)
	}
	if err := upd.Write(2, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := upd.Commit(uplink); err != nil {
		t.Fatal(err)
	}
	if got := bsrv.Obs().Counter("server_commits").Load(); got != 1 {
		t.Fatalf("server commits = %d", got)
	}

	// A conflicting request is rejected with the server's reason.
	err = uplink.SubmitUpdate(protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 2, Cycle: 1}},
		Writes: []protocol.ObjectWrite{{Obj: 3, Value: []byte("x")}},
	})
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("conflicting update = %v, want rejection", err)
	}

	// Every uplink round trip — accepted or rejected — lands one
	// observation in the commit-latency histogram the soak harness
	// bounds.
	h, ok := ns.reg.Snapshot().Histograms["netcast_uplink_ns"]
	if !ok {
		t.Fatal("netcast_uplink_ns histogram not registered")
	}
	if got := h.Total(); got != 2 {
		t.Fatalf("netcast_uplink_ns observations = %d, want 2", got)
	}
	if h.Sum <= 0 {
		t.Fatalf("netcast_uplink_ns sum = %d, want > 0", h.Sum)
	}
}

func TestSlowSubscriberIsDropped(t *testing.T) {
	_, ns := newNetServer(t, protocol.RMatrix, 2)
	// A raw connection that never reads: the kernel buffer eventually
	// fills and Step's write deadline drops it.
	conn, err := net.Dial("tcp", ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	awaitSubscribers(t, ns, 1)
	deadline := time.Now().Add(30 * time.Second)
	for ns.Subscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("unread subscriber never dropped")
		}
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSparseGroupedOverTCP(t *testing.T) {
	bsrv, err := server.New(server.Config{
		Objects: 8, ObjectBits: 64, Algorithm: protocol.Grouped, Groups: 4,
		RegroupEvery: 3, Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	ns, err := ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", Options{SparseGrouped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	tuner, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	sub := tuner.Subscribe(64)
	awaitSubscribers(t, ns, 1)

	// Skewed commits so regrouping actually moves the partition.
	for c := 1; c <= 9; c++ {
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
		up := bsrv.Begin()
		up.Read(7)
		if err := up.Write(c%2, []byte{byte(c)}); err != nil {
			t.Fatal(err)
		}
		if err := up.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for c := 1; c <= 9; c++ {
		select {
		case cb := <-sub.C:
			if int(cb.Number) != c {
				t.Fatalf("cycle %d, want %d", cb.Number, c)
			}
			if cb.Grouped == nil {
				t.Fatalf("cycle %d arrived without a grouped matrix", c)
			}
		case <-deadline:
			t.Fatalf("cycle %d never arrived", c)
		}
	}
	if bsrv.RegroupEpoch() == 0 {
		t.Fatal("server never regrouped under a skewed commit stream")
	}
	if bsrv.Obs().Counter("server_regroup_churn").Load() == 0 {
		t.Fatal("regroup churn counter never moved")
	}
	if ns.cGroupedBytes.Load() == 0 || ns.cFullBytes.Load() != 0 {
		t.Fatalf("grouped stream miscounted: grouped=%d full=%d",
			ns.cGroupedBytes.Load(), ns.cFullBytes.Load())
	}

	// A late tuner's first frames are partition-less (the partition went
	// out before it connected); it must stay silent until the next
	// regroup epoch ships the partition, then decode.
	late, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	lateSub := late.Subscribe(64)
	awaitSubscribers(t, ns, 2)
	for c := 10; c <= 18; c++ {
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
		up := bsrv.Begin()
		up.Read(c % 8)
		if err := up.Write(7-c%2, []byte{byte(c)}); err != nil {
			t.Fatal(err)
		}
		if err := up.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case cb := <-lateSub.C:
		if cb.Grouped == nil || cb.Number < 10 {
			t.Fatalf("late tuner decoded cycle %d", cb.Number)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late tuner never resynchronized on a partition-bearing frame")
	}
}

// TestSparseGroupedLateTunerAtEpochZero: a server that never regroups
// sends its partition once, in the first frame, and stays at epoch 0.
// A tuner that connects after that frame must still decode every cycle
// it hears, on the uniform partition every server starts with.
func TestSparseGroupedLateTunerAtEpochZero(t *testing.T) {
	bsrv, err := server.New(server.Config{Objects: 8, ObjectBits: 64, Algorithm: protocol.Grouped, Groups: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	ns, err := ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", Options{SparseGrouped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	local := bsrv.Subscribe(64)          // what the server publishes, in process
	if _, err := ns.Step(); err != nil { // the partition-bearing frame, heard by nobody
		t.Fatal(err)
	}
	<-local.C
	late, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	sub := late.Subscribe(64)
	awaitSubscribers(t, ns, 1)
	for c := 2; c <= 21; c++ {
		if err := bsrv.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: c % 8, Value: []byte{byte(c)}}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
		w := <-local.C
		select {
		case cb := <-sub.C:
			if cb.Number != w.Number || !cb.Grouped.Equal(w.Grouped) {
				t.Fatalf("late tuner heard cycle %d (MC equal %v), want cycle %d", cb.Number, cb.Grouped.Equal(w.Grouped), w.Number)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("late tuner never decoded cycle %d at epoch 0", w.Number)
		}
	}
}

// TestHungUpTunerDroppedAtOnce: a tuner that closes its connection
// leaves the audience when the server reads the hang-up, not at the next
// Step's failed write: with no Step at all, Subscribers and the
// netcast_subscribers gauge reach 0. A hang-up is no overflow:
// netcast_overflow_reaps stays 0.
func TestHungUpTunerDroppedAtOnce(t *testing.T) {
	bsrv, err := server.New(server.Config{Objects: 4, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	tuner, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	awaitSubscribers(t, ns, 1)
	tuner.Close()
	for deadline := time.Now().Add(5 * time.Second); ns.Subscribers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a hung-up tuner is still counted without a Step")
		}
	}
	snap := ns.Obs().Snapshot()
	if g, d := snap.Gauges["netcast_subscribers"], snap.Counters["netcast_subs_dropped"]; g != 0 || d != 1 {
		t.Fatalf("netcast_subscribers = %d, netcast_subs_dropped = %d; want 0, 1", g, d)
	}
	if r := snap.Counters["netcast_overflow_reaps"]; r != 0 {
		t.Fatalf("netcast_overflow_reaps = %d after a hang-up, want 0", r)
	}
}

func TestServeRejectsRegroupWithoutSparse(t *testing.T) {
	bsrv, err := server.New(server.Config{
		Objects: 4, ObjectBits: 64, Algorithm: protocol.Grouped, Groups: 2, RegroupEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	if _, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0"); err == nil {
		t.Fatal("a regrouping server must require SparseGrouped")
	}
}

// End-to-end over TCP with concurrent clients: the run's induced
// history must satisfy APPROX.
func TestNetworkRunConsistent(t *testing.T) {
	bsrv, ns := newNetServer(t, protocol.FMatrix, 5)

	const clients = 3
	const txnsPerClient = 15
	var mu sync.Mutex
	var readSets [][]protocol.ReadAt
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			tuner, err := Tune(ns.BroadcastAddr())
			if err != nil {
				t.Error(err)
				return
			}
			defer tuner.Close()
			cli := client.New(client.Config{Algorithm: protocol.FMatrix}, tuner.Subscribe(64))
			for done := 0; done < txnsPerClient; {
				if _, ok := cli.AwaitCycle(); !ok {
					return
				}
				txn := cli.BeginReadOnly()
				ok := true
				for obj := 0; obj < 3; obj++ {
					if _, err := txn.Read((ci + obj) % 5); err != nil {
						ok = false
						break
					}
					cli.PollCycle()
				}
				if !ok {
					continue
				}
				rs, err := txn.Commit()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				readSets = append(readSets, rs)
				mu.Unlock()
				done++
			}
		}(ci)
	}

	stop := make(chan struct{})
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ns.Step(); err != nil {
				return
			}
			if i%2 == 0 && bsrv.Obs().Counter("server_commits").Load() < 200 {
				txn := bsrv.Begin()
				txn.Read(i % 5)
				txn.Write((i+1)%5, []byte{byte(i)})
				if err := txn.Commit(); err != nil && !errors.Is(err, server.ErrConflict) {
					t.Error(err)
					return
				}
			}
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	wg.Wait()
	close(stop)
	srvWG.Wait()

	h := bctest.InducedHistory(bsrv.AuditLog(), readSets)
	if v := core.Approx(h); !v.OK {
		t.Fatalf("network run violates APPROX: %s", v.Reason)
	}
	if len(readSets) != clients*txnsPerClient {
		t.Fatalf("committed %d, want %d", len(readSets), clients*txnsPerClient)
	}
}

// TestSubscriberInstrumentsAgreeInEverySnapshot scrapes the registry
// while several tuners join and are dropped: every snapshot must show
// netcast_subs_added − netcast_subs_dropped equal to the
// netcast_subscribers gauge. The three move in one registry update; a
// scrape landing between the counter and the gauge used to break the
// balance bcsoak checks.
func TestSubscriberInstrumentsAgreeInEverySnapshot(t *testing.T) {
	_, ns := newNetServer(t, protocol.FMatrix, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := net.Dial("tcp", ns.BroadcastAddr())
				if err != nil {
					t.Error(err)
					return
				}
				// A malformed subset frame gets the connection dropped;
				// the read returns once the server has closed it.
				if err := WriteFrame(c, []byte("junk")); err == nil {
					io.Copy(io.Discard, c)
				}
				c.Close()
			}
		}()
	}
	const snapshots = 100_000
	mismatches, churned := 0, int64(0)
	var first error
	for i := 0; i < snapshots; i++ {
		s := ns.Obs().Snapshot()
		if err := bctest.CheckSubscriberBalance(s, 1<<20); err != nil {
			if mismatches++; first == nil {
				first = err
			}
		}
		churned = s.Counters["netcast_subs_dropped"]
	}
	close(stop)
	wg.Wait()
	if mismatches > 0 {
		t.Fatalf("%d of %d snapshots out of balance; first: %v", mismatches, snapshots, first)
	}
	if churned == 0 {
		t.Fatal("no subscriber was dropped while the snapshots ran")
	}
	t.Logf("%d snapshots, %d subscribers dropped meanwhile", snapshots, churned)
}
