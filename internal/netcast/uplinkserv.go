package netcast

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/wire"
)

// UplinkServer serves an uplink port over any protocol.Uplink. It is the
// package's one uplink loop: Serve runs one in front of its broadcast
// server, and a sharded deployment runs a bare one as the coordinator
// endpoint — clients (Routers) assemble update transactions in global
// object ids and submit them here, and the coordinator behind the
// handler splits them across the shards' servers in process. BCU1 is
// the only frame either port accepts.
type UplinkServer struct {
	ln     net.Listener
	uplink protocol.Uplink

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	cRequests *obs.Counter
	hUplinkNs *obs.Histogram
}

// ServeUplink listens on addr and dispatches each uplink frame to the
// handler. reg receives the endpoint's metrics (netcast_uplink_requests
// and the netcast_uplink_ns latency histogram); nil uses a private
// registry.
func ServeUplink(addr string, uplink protocol.Uplink, reg *obs.Registry) (*UplinkServer, error) {
	if uplink == nil {
		return nil, errors.New("netcast: ServeUplink needs a handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	u := &UplinkServer{
		ln:        ln,
		uplink:    uplink,
		conns:     map[net.Conn]struct{}{},
		cRequests: reg.Counter("netcast_uplink_requests"),
		// Uplink commit latency (decode + handler-side validation +
		// commit), nanoseconds: ~1 µs .. ~0.5 s. The soak harness bounds
		// its p99.
		hUplinkNs: reg.Histogram("netcast_uplink_ns", obs.Pow2Buckets(10, 20)),
	}
	u.wg.Add(1)
	go u.accept()
	return u, nil
}

// Addr reports the listener's address.
func (u *UplinkServer) Addr() string { return u.ln.Addr().String() }

// Close stops the listener, disconnects every uplink connection and
// waits for their loops. A connection idle in its read is cut at once;
// one mid-dispatch writes its reply first, because only the read side
// is expired here and the loop closes the socket on its way out.
// Requests the loop has read ahead but not yet dispatched are dropped
// unanswered, as if they had not arrived.
func (u *UplinkServer) Close() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.closed = true
	for c := range u.conns {
		c.SetReadDeadline(time.Now())
	}
	u.mu.Unlock()
	u.ln.Close()
	u.wg.Wait()
}

func (u *UplinkServer) accept() {
	defer u.wg.Done()
	for {
		conn, err := u.ln.Accept()
		if err != nil {
			return
		}
		u.mu.Lock()
		if u.closed {
			u.mu.Unlock()
			conn.Close()
			return
		}
		u.conns[conn] = struct{}{}
		u.wg.Add(1)
		u.mu.Unlock()
		go u.serve(conn)
	}
}

// serve answers one connection's requests in arrival order, each reply
// in one write before the next read, until it drops or the server
// closes. A request still in the read buffer at Close is not
// dispatched: the socket's read deadline cannot stop it. Each request
// is decoded where its frame lies into one the connection reuses.
func (u *UplinkServer) serve(conn net.Conn) {
	defer u.wg.Done()
	defer func() {
		u.mu.Lock()
		delete(u.conns, conn)
		u.mu.Unlock()
		conn.Close()
	}()
	fr, reply := frameReader{r: conn}, make([]byte, 4, 64)
	var req protocol.UpdateRequest
	for {
		frame, err := fr.next()
		if err != nil || u.isClosed() {
			return
		}
		u.cRequests.Inc()
		start := time.Now()
		verdict := u.dispatch(frame, &req)
		u.hUplinkNs.Observe(time.Since(start).Nanoseconds())
		reply = wire.AppendUpdateReply(reply[:4], verdict)
		if sendFrame(conn, reply) != nil {
			return
		}
	}
}

// isClosed reports whether Close has begun.
func (u *UplinkServer) isClosed() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.closed
}

// dispatch decodes one BCU1 frame into req and submits it; a frame of
// any other kind is refused for what it is.
func (u *UplinkServer) dispatch(frame []byte, req *protocol.UpdateRequest) error {
	if kind := wire.KindOf(frame); kind != wire.KindUpdate {
		return fmt.Errorf("netcast: %v frame on the uplink", kind)
	}
	if err := wire.DecodeUpdateRequestInto(req, frame); err != nil {
		return err
	}
	return u.uplink.SubmitUpdate(*req)
}
