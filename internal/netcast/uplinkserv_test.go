package netcast

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/shard"
	"broadcastcc/internal/wire"
)

// TestServeUplinkNetFleet runs a whole sharded deployment over real
// sockets: two shards each broadcasting on their own TCP channel with
// their own uplink, a coordinator endpoint served with ServeUplink, and
// a router of tuned clients committing a cross-shard update through it
// — then reading the writes back off the air. A burst of cross-shard
// commits over the one coordinator connection follows, and every value
// of it must read back intact off both channels.
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

	// One netcast server per shard: its broadcast channel plus its own
	// uplink; the coordinator calls the nodes in process.
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

	// The burst: back-to-back blind writes, each to one fresh object on
	// either shard, with values of differing lengths. The port reads
	// each frame over the last and the coordinator hands the shards the
	// frame's own values, so a shard that kept one uncopied would
	// broadcast the bytes of a later frame.
	var fresh [k][]int
	for obj := 0; obj < m.N(); obj++ {
		if s := m.ShardOf(obj); obj != a && obj != b {
			fresh[s] = append(fresh[s], obj)
		}
	}
	want := map[int][]byte{}
	for i := 0; i < min(len(fresh[0]), len(fresh[1])); i++ {
		x, y := fresh[0][i], fresh[1][i]
		want[x] = bytes.Repeat([]byte{'a' + byte(i)}, 1+i%8)
		want[y] = bytes.Repeat([]byte{'A' + byte(i)}, 8-i%8)
		if err := up.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{
			{Obj: x, Value: want[x]}, {Obj: y, Value: want[y]},
		}}); err != nil {
			t.Fatalf("burst commit %d: %v", i, err)
		}
	}
	if len(want) < 8 {
		t.Fatalf("a burst of %d writes; the placement leaves too few fresh objects", len(want))
	}
	step()
	for s := 0; s < k; s++ {
		if _, ok := clients[s].AwaitCycle(); !ok {
			t.Fatal("broadcast stream closed")
		}
	}
	ro = r.BeginReadOnly()
	defer ro.Abort()
	for obj, v := range want {
		got, err := ro.Read(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimRight(got, "\x00"), v) {
			t.Errorf("object %d (shard %d) reads back %q, committed %q", obj, m.ShardOf(obj), got, v)
		}
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

// groupedShapeRequest is one request of the uplink-grouped benchmark
// workload: two reads and two writes of 64-byte values.
func groupedShapeRequest(obj int) protocol.UpdateRequest {
	return protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: obj, Cycle: 1}, {Obj: obj + 1, Cycle: 1}},
		Writes: []protocol.ObjectWrite{{Obj: obj + 2, Value: make([]byte, 64)}, {Obj: obj + 3, Value: make([]byte, 64)}},
	}
}

// rawUplink serves an uplink whose handler runs gate (if any) and then
// rejects the request with a reason naming its first write's object,
// so each reply says which request it answers, and dials it without
// the Uplink client: the test controls exactly which bytes reach the
// server when.
func rawUplink(t *testing.T, gate func()) (*UplinkServer, net.Conn) {
	t.Helper()
	us, err := ServeUplink("127.0.0.1:0", uplinkFunc(func(req protocol.UpdateRequest) error {
		if gate != nil {
			gate()
		}
		return fmt.Errorf("obj %d", req.Writes[0].Obj)
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(us.Close)
	conn, err := net.Dial("tcp", us.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return us, conn
}

// framedRequests is the uplink byte stream carrying one grouped-shape
// request per object in objs.
func framedRequests(t *testing.T, objs ...int) []byte {
	t.Helper()
	var stream bytes.Buffer
	for _, obj := range objs {
		if err := WriteFrame(&stream, wire.EncodeUpdateRequest(groupedShapeRequest(obj))); err != nil {
			t.Fatal(err)
		}
	}
	return stream.Bytes()
}

// expectReply reads one verdict off conn within a second and checks it
// answers the request for obj.
func expectReply(t *testing.T, conn net.Conn, obj int) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(time.Second))
	frame, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("reply for obj %d: %v", obj, err)
	}
	verdict, err := wire.DecodeUpdateReply(frame)
	if want := fmt.Sprintf("obj %d", obj+2); err != nil || verdict == nil || !strings.HasSuffix(verdict.Error(), want) {
		t.Fatalf("reply = %v, %v; want the verdict naming %q", verdict, err, want)
	}
}

// TestUplinkFlushesBeforeBlocking: a request followed by half of the
// next gets its reply while the server waits for the rest. A server
// that left reply 1 in its write buffer while blocked reading request 2
// would deadlock a client waiting for reply 1 before sending more.
func TestUplinkFlushesBeforeBlocking(t *testing.T) {
	_, conn := rawUplink(t, nil)
	stream := framedRequests(t, 10, 20)
	cut := len(stream) * 3 / 4 // all of request 1, half of request 2
	if _, err := conn.Write(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	expectReply(t, conn, 10)
	if _, err := conn.Write(stream[cut:]); err != nil {
		t.Fatal(err)
	}
	expectReply(t, conn, 20)
}

// TestUplinkAnswersBurstBeforeEOF: requests that arrive together are
// answered in arrival order, and a client that half-closes after its
// burst still gets every reply before the server hangs up.
func TestUplinkAnswersBurstBeforeEOF(t *testing.T) {
	_, conn := rawUplink(t, nil)
	if _, err := conn.Write(framedRequests(t, 10, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	for _, obj := range []int{10, 20, 30} {
		expectReply(t, conn, obj)
	}
	if _, err := ReadFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last reply: %v, want io.EOF", err)
	}
}

// TestCloseDropsReadAheadRequests: of a burst the server has read
// ahead, Close lets the request in flight get its reply and dispatches
// none of the rest — they were never acknowledged, so they must not
// commit behind the client's back.
func TestCloseDropsReadAheadRequests(t *testing.T) {
	var dispatched atomic.Int32
	entered, release := make(chan struct{}, 3), make(chan struct{})
	us, conn := rawUplink(t, func() {
		dispatched.Add(1)
		entered <- struct{}{}
		<-release
	})
	if _, err := conn.Write(framedRequests(t, 10, 20, 30)); err != nil {
		t.Fatal(err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		us.Close()
		close(closed)
	}()
	for !us.isClosed() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closed
	if n := dispatched.Load(); n != 1 {
		t.Fatalf("%d requests dispatched, want only the one in flight at Close", n)
	}
	expectReply(t, conn, 10)
	if _, err := ReadFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("after the in-flight reply: %v, want io.EOF", err)
	}
}

// uplinkShapes are the uplink requests of two benchmark workloads:
// uplink-grouped's, whose frame fits the frame reader's starting 4 KiB
// buffer, and air-table1's, four reads and four 1 KiB writes, whose
// frame does not: the server's reader grows to it on the first.
var uplinkShapes = []struct {
	name string
	req  protocol.UpdateRequest
}{
	{"grouped", groupedShapeRequest(0)},
	{"table1", table1ShapeRequest()},
}

// table1ShapeRequest is one request of the air-table1 workload.
func table1ShapeRequest() protocol.UpdateRequest {
	var req protocol.UpdateRequest
	for obj := 0; obj < 4; obj++ {
		req.Reads = append(req.Reads, protocol.ReadAt{Obj: obj, Cycle: 1})
		req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: 4 + obj, Value: make([]byte, 1024)})
	}
	return req
}

// uplinkRoundTripAllocs is the whole process's heap allocations per
// SubmitUpdate to a no-op handler over loopback TCP, in steady state:
// request encode and reply decode at the client, frame read, request
// decode and reply encode at the server. The request is encoded into
// the Uplink's buffer behind its length prefix and decoded where its
// frame lies, in the connection's frame reader, into a request the
// connection reuses; it was 10 while each frame, request and reply was
// a fresh buffer, and 14 with a 4-byte header array escaping per read
// and per write at each end.
const uplinkRoundTripAllocs = 0

func TestUplinkRoundTripAllocs(t *testing.T) {
	for _, shape := range uplinkShapes {
		t.Run(shape.name, func(t *testing.T) {
			up := noopUplink(t)
			got := testing.AllocsPerRun(500, func() {
				if err := up.SubmitUpdate(shape.req); err != nil {
					t.Fatal(err)
				}
			})
			if got != uplinkRoundTripAllocs {
				t.Fatalf("%.0f allocs per uplink round trip, want %d", got, uplinkRoundTripAllocs)
			}
		})
	}
}

// noopHandler accepts every request and does nothing.
type noopHandler struct{}

func (noopHandler) SubmitUpdate(protocol.UpdateRequest) error { return nil }

// noopUplink dials an uplink port whose handler accepts every request
// and does nothing, so what a round trip costs is the transport.
func noopUplink(t testing.TB) *Uplink {
	us, err := ServeUplink("127.0.0.1:0", noopHandler{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(us.Close)
	up, err := DialUplink(us.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { up.Close() })
	return up
}

// BenchmarkUplinkRoundTrip is one commit's trip over loopback TCP —
// encode, write, the server's read, decode and reply, the client's
// read — with the server's handler reduced to a no-op, so what it times
// is the transport; one sub-benchmark per request shape.
func BenchmarkUplinkRoundTrip(b *testing.B) {
	for _, shape := range uplinkShapes {
		b.Run(shape.name, func(b *testing.B) {
			up := noopUplink(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := up.SubmitUpdate(shape.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingConn counts the Writes made on a connection and the Reads
// that have returned.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int32
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestUplinkOneSyscallPerFrame: over a synchronous in-memory pipe, a
// steady-state SubmitUpdate of either shape is one Write at the client,
// then one Read and one Write at the server, and one Read at the
// client; a Table 1 request, larger than the reader's starting buffer,
// included. A Read counts when it returns and a Write when it starts,
// so each count is settled when SubmitUpdate returns.
func TestUplinkOneSyscallPerFrame(t *testing.T) {
	for _, shape := range uplinkShapes {
		t.Run(shape.name, func(t *testing.T) {
			us, err := ServeUplink("127.0.0.1:0", noopHandler{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer us.Close()
			c, s := net.Pipe()
			cc, sc := &countingConn{Conn: c}, &countingConn{Conn: s}
			us.mu.Lock()
			us.conns[sc] = struct{}{}
			us.wg.Add(1)
			us.mu.Unlock()
			go us.serve(sc)
			up := &Uplink{conn: cc, fr: frameReader{r: cc}}
			defer up.Close()
			for round := 0; round < 4; round++ {
				before := [4]int32{cc.writes.Load(), sc.reads.Load(), sc.writes.Load(), cc.reads.Load()}
				if err := up.SubmitUpdate(shape.req); err != nil {
					t.Fatal(err)
				}
				after := [4]int32{cc.writes.Load(), sc.reads.Load(), sc.writes.Load(), cc.reads.Load()}
				for i := range after {
					after[i] -= before[i]
				}
				if round > 0 && after != [4]int32{1, 1, 1, 1} {
					t.Fatalf("round %d: client writes, server reads, server writes, client reads = %v, want 1 each", round, after)
				}
			}
		})
	}
}

// TestUplinkFrameReuseKeepsState: the uplink port decodes every request
// into memory it reuses for the next, so what the server keeps must be
// its own. Over one socket to a real server, a stream of submits, each
// frame laid over the last in the read buffer: the committed values and
// the audit log are what was sent.
func TestUplinkFrameReuseKeepsState(t *testing.T) {
	const n = 16
	srv, err := server.New(server.Config{Objects: n, ObjectBits: 64, Algorithm: protocol.FMatrix, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.StartCycle()
	us, err := ServeUplink("127.0.0.1:0", srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	up, err := DialUplink(us.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	// Every request reads object n-1, which nothing writes, and writes
	// values that name their object and round.
	want := make([][]byte, n)
	var wantLog []cmatrix.Commit
	request := func(round int, objs ...int) protocol.UpdateRequest {
		req := protocol.UpdateRequest{Reads: []protocol.ReadAt{{Obj: n - 1, Cycle: 1}}}
		for _, obj := range objs {
			v := []byte(fmt.Sprintf("o%02d r%d", obj, round))
			req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: obj, Value: v})
			want[obj] = v
		}
		wantLog = append(wantLog, cmatrix.Commit{ReadSet: []int{n - 1}, WriteSet: objs, Cycle: 1})
		return req
	}
	for round := 1; round <= 3; round++ {
		for obj := 0; obj+4 <= n-1; obj += 4 {
			if err := up.SubmitUpdate(request(round, obj, obj+1, obj+2, obj+3)); err != nil {
				t.Fatalf("round %d, objects %d..: %v", round, obj, err)
			}
		}
	}

	cb := srv.StartCycle()
	for obj, v := range want {
		if !bytes.Equal(cb.Values[obj], v) {
			t.Errorf("object %d committed %q, sent %q", obj, cb.Values[obj], v)
		}
	}
	if got := srv.AuditLog(); !reflect.DeepEqual(got, wantLog) {
		t.Errorf("audit log:\n got %v\nwant %v", got, wantLog)
	}
}

// stallingUplink holds each submit until the test sends on release,
// then reports the value it was handed.
type stallingUplink struct {
	release chan struct{}
	seen    chan []byte
}

func (p *stallingUplink) SubmitUpdate(req protocol.UpdateRequest) error {
	<-p.release
	p.seen <- bytes.Clone(req.Writes[0].Value)
	return nil
}

// TestCoordinatorTimeoutKeepsRequest: an uplink port has no call
// timeout, so it answers a call only once its handler (a server, or the
// fleet's coordinator) is done with the request — however long that
// takes — and reads the next frame over the last only after that. Two
// frames are written back to back on one connection while the handler
// stalls the first: no reply may come before the release, and the
// handler must see each value its frame carried.
func TestCoordinatorTimeoutKeepsRequest(t *testing.T) {
	p := &stallingUplink{release: make(chan struct{}), seen: make(chan []byte, 2)} // one per submit
	us, err := ServeUplink("127.0.0.1:0", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	conn, err := net.Dial("tcp", us.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	values := []string{"first", "other"}
	for _, v := range values {
		frame := wire.EncodeUpdateRequest(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte(v)}}})
		if err := WriteFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	replies := make(chan error, len(values))
	go func() {
		for range values {
			reply, err := ReadFrame(conn)
			if err == nil {
				var wireErr error
				err, wireErr = wire.DecodeUpdateReply(reply)
				if wireErr != nil {
					err = wireErr
				}
			}
			replies <- err
		}
	}()
	for _, v := range values {
		select {
		case err := <-replies:
			t.Fatalf("reply %v before the handler released %q", err, v)
		case <-time.After(20 * time.Millisecond):
		}
		p.release <- struct{}{}
		if got := string(<-p.seen); got != v {
			t.Fatalf("handler saw %q, its frame carried %q", got, v)
		}
		select {
		case err := <-replies:
			if err != nil {
				t.Fatalf("submit %q: %v", v, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no reply to %q after the release", v)
		}
	}
}
