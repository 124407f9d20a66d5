package netcast

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"broadcastcc/internal/client"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/shard"
)

// TestServeUplinkNetFleet runs a whole sharded deployment over real
// sockets: two shards each broadcasting on their own TCP channel with
// their own participant uplink, a coordinator endpoint served with
// ServeUplink, and a router of tuned clients committing a cross-shard
// update through it — then reading the writes back off the air.
func TestServeUplinkNetFleet(t *testing.T) {
	const k, n = 2, 16
	f, err := shard.NewFleet(shard.FleetConfig{
		Base:   server.Config{Objects: n, ObjectBits: 64, Algorithm: protocol.FMatrix, Audit: true},
		Seed:   11,
		Shards: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// One netcast server per shard: its broadcast channel plus the
	// participant uplink the coordinator would dial in a distributed
	// deployment (here the coordinator calls the nodes in process).
	nss := make([]*Server, k)
	for s := 0; s < k; s++ {
		ns, err := Serve(f.Node(s), "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ns.Close()
		nss[s] = ns
	}
	us, err := ServeUplink("127.0.0.1:0", f.Coordinator(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	step := func() {
		for _, ns := range nss {
			if _, err := ns.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	clients := make([]*client.Client, k)
	for s := 0; s < k; s++ {
		tuner, err := Tune(nss[s].BroadcastAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer tuner.Close()
		clients[s] = client.New(client.Config{Algorithm: protocol.FMatrix}, tuner.Subscribe(64))
		// A cycle stepped before the server has accepted the tuner never
		// reaches it, and the router would wait for it forever.
		awaitSubscribers(t, nss[s], 1)
	}
	up, err := DialUplink(us.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	r, err := shard.NewRouter(f.Mapping(), clients, up)
	if err != nil {
		t.Fatal(err)
	}

	m := f.Mapping()
	objOn := func(s int) int {
		for obj := 0; obj < m.N(); obj++ {
			if m.ShardOf(obj) == s {
				return obj
			}
		}
		t.Fatalf("no object on shard %d", s)
		return -1
	}
	a, b := objOn(0), objOn(1)

	step()
	txn := r.BeginUpdate()
	if _, err := txn.Read(a); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(a, []byte("aye")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(b, []byte("bee")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("cross-shard commit over TCP: %v", err)
	}

	// The next lockstep cycle carries both writes on their channels.
	step()
	for s := 0; s < k; s++ {
		if _, ok := clients[s].AwaitCycle(); !ok {
			t.Fatal("broadcast stream closed")
		}
	}
	got, err := r.RunReadOnly(4, func(txn *shard.ReadTxn) error {
		for _, obj := range []int{a, b} {
			if _, err := txn.Read(obj); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read-back: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read set %v", got)
	}
	ro := r.BeginReadOnly()
	va, err := ro.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := ro.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	ro.Abort()
	// Broadcast slots are fixed-width (ObjectBits), so values come back
	// NUL-padded.
	if !bytes.Equal(bytes.TrimRight(va, "\x00"), []byte("aye")) ||
		!bytes.Equal(bytes.TrimRight(vb, "\x00"), []byte("bee")) {
		t.Fatalf("read back %q, %q", va, vb)
	}
	if us.Addr() == "" {
		t.Fatal("no address")
	}
}

// TestServeUplinkRejectsTwoShot: a coordinator endpoint is not a
// participant — prepare/decide frames must come back refused, not
// crash or hang, and the connection must stay usable.
func TestServeUplinkRejectsTwoShot(t *testing.T) {
	submitted := 0
	us, err := ServeUplink("127.0.0.1:0", uplinkFunc(func(protocol.UpdateRequest) error {
		submitted++
		return nil
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	up, err := DialUplink(us.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	err = up.PrepareUpdate(1, protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte("x")}}}, false)
	if err == nil || !strings.Contains(err.Error(), "two-shot") {
		t.Fatalf("prepare at coordinator port: %v", err)
	}
	if err := up.DecideUpdate(1, true); err == nil || !strings.Contains(err.Error(), "two-shot") {
		t.Fatalf("decide at coordinator port: %v", err)
	}
	if err := up.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte("x")}}}); err != nil {
		t.Fatalf("submit after refusals: %v", err)
	}
	if submitted != 1 {
		t.Fatalf("handler saw %d submissions, want 1", submitted)
	}
}

// TestServeUplinkNilHandler: a nil handler is a configuration error.
func TestServeUplinkNilHandler(t *testing.T) {
	if _, err := ServeUplink("127.0.0.1:0", nil, nil); err == nil {
		t.Fatal("ServeUplink accepted a nil handler")
	}
}

// TestCloseDisconnectsLiveUplinks: Close must not wait for uplink
// clients to hang up — the one uplink loop tracks its connections and
// cuts them. Both entry points share that loop.
func TestCloseDisconnectsLiveUplinks(t *testing.T) {
	bsrv, err := server.New(server.Config{Objects: 8, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	bsrv.StartCycle()
	for _, tc := range []struct {
		name  string
		serve func(t *testing.T) (addr string, close func())
	}{
		{"Serve", func(t *testing.T) (string, func()) {
			ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return ns.UplinkAddr(), ns.Close
		}},
		{"ServeUplink", func(t *testing.T) (string, func()) {
			us, err := ServeUplink("127.0.0.1:0", bsrv, nil)
			if err != nil {
				t.Fatal(err)
			}
			return us.Addr(), us.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, closeServer := tc.serve(t)
			up, err := DialUplink(addr)
			if err != nil {
				closeServer()
				t.Fatal(err)
			}
			defer up.Close()
			req := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 1, Value: []byte("live")}}}
			if err := up.SubmitUpdate(req); err != nil {
				closeServer()
				t.Fatalf("submit on a live uplink: %v", err)
			}
			closed := make(chan struct{})
			go func() {
				closeServer()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(2 * time.Second):
				t.Fatal("Close still waiting on a connected uplink client after 2s")
			}
			err = up.SubmitUpdate(req)
			var netErr net.Error
			if !errors.Is(err, io.EOF) && !errors.As(err, &netErr) {
				t.Fatalf("submit after Close: %v, want a connection error", err)
			}
		})
	}
}

// TestCloseLetsInFlightReplyOut: a request already dispatched when Close
// arrives still gets its verdict — the client of a committed update must
// not be left guessing.
func TestCloseLetsInFlightReplyOut(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	us, err := ServeUplink("127.0.0.1:0", uplinkFunc(func(protocol.UpdateRequest) error {
		close(entered)
		<-release
		return nil
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	up, err := DialUplink(us.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	verdict := make(chan error, 1)
	go func() {
		verdict <- up.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte("x")}}})
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		us.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a dispatch was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-verdict; err != nil {
		t.Fatalf("in-flight request lost its reply to Close: %v", err)
	}
	<-closed
}

// uplinkFunc adapts a function to protocol.Uplink.
type uplinkFunc func(protocol.UpdateRequest) error

func (f uplinkFunc) SubmitUpdate(req protocol.UpdateRequest) error { return f(req) }
