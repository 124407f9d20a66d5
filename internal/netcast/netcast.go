// Package netcast puts the broadcast runtime on real sockets: the
// server streams encoded broadcast cycles to any number of TCP
// subscribers (the "air"), and accepts update transactions on a
// separate uplink port. Clients tune in with Tune, which decodes frames
// into an in-process bcast.Medium so the ordinary client runtime
// (internal/client) works unchanged on top of it.
//
// The broadcast stream is one-way, exactly like the medium it models:
// every subscriber gets the same frames, a subscriber that writes
// anything up its connection is disconnected, and so is one that cannot
// keep up, rather than allowed to apply backpressure.
package netcast

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// maxFrame bounds accepted frame sizes (16 MiB is far above any real
// cycle or uplink request); errFrameSize refuses a frame of n bytes.
const maxFrame = 16 << 20

func errFrameSize(n int) error { return fmt.Errorf("netcast: frame of %d bytes exceeds limit", n) }

// WriteFrame writes one length-prefixed frame in the broadcast stream's
// wire format (4-byte big-endian length, then the payload), through the
// fan-out's own path: prefix and payload in one WriteTo, a single writev
// on a socket. Exported so frame-level tools — capture tools, socket
// benchmarks — can speak the stream format without decoding cycles.
func WriteFrame(w io.Writer, data []byte) error {
	var one struct { // a frameWriter and its storage, one allocation
		fw  frameWriter
		hdr [4]byte
		iov [2][]byte
	}
	one.fw.hdrs, one.fw.iov = one.hdr[:0], one.iov[:0]
	_, err := one.fw.write(w, [][]byte{data})
	return err
}

// frameWriter writes a run of frames in the stream format — prefix,
// frame, prefix, frame… — with one WriteTo, however many frames. The
// prefixes and the vector live in storage it keeps, so a warm write
// allocates nothing when the frameWriter is not on the stack.
type frameWriter struct {
	hdrs []byte   // the frames' length prefixes, 4 bytes each
	iov  [][]byte // vec's storage
	// vec is what WriteTo sends. WriteTo consumes it and rewrites its
	// elements on a partial write, so it is rebuilt for every write.
	vec net.Buffers
}

// write writes frames to w and returns the bytes WriteTo reports.
func (fw *frameWriter) write(w io.Writer, frames [][]byte) (int64, error) {
	fw.hdrs, fw.iov = fw.hdrs[:0], fw.iov[:0]
	for _, data := range frames {
		if len(data) > maxFrame {
			return 0, errFrameSize(len(data))
		}
		fw.hdrs = binary.BigEndian.AppendUint32(fw.hdrs, uint32(len(data)))
	}
	for i, data := range frames {
		fw.iov = append(fw.iov, fw.hdrs[4*i:4*i+4], data)
	}
	fw.vec = fw.iov
	return fw.vec.WriteTo(w)
}

// sendFrame writes frame, its first 4 bytes set to the length prefix, in one Write.
func sendFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > maxFrame {
		return errFrameSize(n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame, rejecting frames above the
// stream's size limit. The frame is a fresh buffer nobody else holds:
// the caller may hand it on for good (FrameDecoder.Decode keeps it).
// A stream torn inside a frame ends in io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	return readFrame(r, new([4]byte))
}

// readFrame is ReadFrame reading the length prefix into hdr.
func readFrame(r io.Reader, hdr *[4]byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return nil, errFrameSize(n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// frameReader reads frames off one connection into a buffer it owns, 4
// KiB at first and grown to the largest frame announced, each Read into
// all its free space: a frame that has arrived whole takes one read.
// next hands out a frame where it lies, valid until the next call.
type frameReader struct {
	r          io.Reader
	buf        []byte
	start, end int // buf[start:end] is read but not yet handed out
}

// next returns the next frame, with ReadFrame's errors.
func (f *frameReader) next() ([]byte, error) {
	if err := f.fill(4); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.buf[f.start:]))
	if n > maxFrame {
		return nil, errFrameSize(n)
	}
	if err := f.fill(4 + n); err != nil {
		return nil, err
	}
	f.start += 4 + n
	return f.buf[f.start-n : f.start : f.start], nil
}

// fill reads until n unread bytes are buffered, first moving them to the
// front, into a larger buffer when n would not fit in this one.
func (f *frameReader) fill(n int) error {
	if f.end-f.start >= n {
		return nil
	}
	buf := f.buf
	if n > len(buf) {
		buf = make([]byte, max(n, 4096))
	}
	f.end = copy(buf, f.buf[f.start:f.end])
	f.buf, f.start = buf, 0
	m, err := io.ReadAtLeast(f.r, f.buf[f.end:], n-f.end)
	if f.end += m; err == io.EOF && f.end > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Options tune the network server.
type Options struct {
	// DeltaEvery, when positive, enables incremental transmission
	// (matrix layouts only): cycles are sent as delta frames over the
	// previous cycle, with a full frame every DeltaEvery cycles so late
	// tuners and subscribers that missed a frame can resynchronize.
	DeltaEvery int

	// RefreshEvery, when positive, controls delta transmission of
	// control columns in program mode (servers carrying an airsched
	// program): each object's column is sent as a delta against its own
	// previous broadcast occurrence, with a full refresh every
	// RefreshEvery occurrences. Zero sends every column in full.
	RefreshEvery int

	// SparseGrouped switches grouped-layout servers to the sparse BCG1
	// frame format: each object's MC row is encoded sparsely (or densely
	// when that is smaller), and the partition travels only in
	// partition-bearing frames — the first frame and every frame after a
	// regroup epoch change; epoch 0's uniform partition decodes without
	// one (wire.DecodeGroupedCycle). Required when the server regroups
	// (RegroupEvery > 0): only BCG1 can carry the resulting non-uniform
	// partitions.
	SparseGrouped bool

	// WriteTimeout bounds each subscriber's write of a cycle; a
	// subscriber that cannot drain the cycle's frames within it is
	// reaped (the broadcast never waits for a listener). Zero means the
	// defaults: 2s in classic mode, 10s in program mode (whole major
	// cycles per Step).
	WriteTimeout time.Duration

	// Obs receives the transmission metrics (netcast_full_bytes,
	// netcast_delta_bytes, netcast_grouped_bytes, netcast_frames_sent,
	// netcast_frames_patched, netcast_tx_bytes, netcast_overflow_reaps,
	// subscriber churn and the netcast_subscribers gauge). Nil uses the
	// broadcast server's registry, so one process naturally has one
	// registry.
	Obs *obs.Registry
}

// Server exposes a broadcast server over TCP.
type Server struct {
	bsrv *server.Server
	opts Options

	broadcastLn net.Listener
	uplink      *UplinkServer

	// The program-mode transmitter (nil = classic one-frame-per-cycle
	// mode), touched only from Step, which is not concurrent.
	program *ProgramEncoder

	mu sync.Mutex
	// subs is the set of broadcast connections; entries vanish with the
	// connection. Every change marks fanOut's snapshot stale.
	subs   map[net.Conn]struct{}
	stale  bool
	closed bool
	wg     sync.WaitGroup

	// Transmission state (Step only, not concurrent): the delta base, the
	// one buffer every classic frame is built in, which regroup epoch the
	// last sparse-grouped frame named, whether any partition-bearing
	// frame has gone out yet, then fanOut's subscriber snapshot (rebuilt
	// when subs is stale) and its writer.
	prev         *bcast.CycleBroadcast
	frame        []byte
	groupedEpoch uint64
	sentPart     bool
	targets      []net.Conn
	out          frameWriter

	// Transmission accounting (bytes of cycle payload, framing
	// excluded) for the delta-bandwidth analysis, plus subscriber
	// churn. Registry-backed so TransmittedBytes and /metrics can
	// never disagree.
	cFullBytes    *obs.Counter
	cDeltaBytes   *obs.Counter
	cGroupedBytes *obs.Counter
	cFramesSent   *obs.Counter
	cPatched      *obs.Counter
	cSubsAdded    *obs.Counter
	cSubsDropped  *obs.Counter
	cTxBytes      *obs.Counter
	cReaps        *obs.Counter
	gSubs         *obs.Gauge
	reg           *obs.Registry

	// Optional datagram broadcast (AttachDatagram): every cycle's frames
	// also go out once over the connectionless datapath. Step-only.
	dsender *dgram.Sender
}

// Serve starts listening on the two addresses (e.g. "127.0.0.1:0") and
// begins accepting subscribers and uplink connections. Broadcast cycles
// are produced by calls to Step (or by RunTicker). The F-Matrix-No
// layout broadcasts no control information and therefore cannot be
// served over a real wire.
func Serve(bsrv *server.Server, broadcastAddr, uplinkAddr string) (*Server, error) {
	return ServeOptions(bsrv, broadcastAddr, uplinkAddr, Options{})
}

// ServeOptions is Serve with explicit Options.
func ServeOptions(bsrv *server.Server, broadcastAddr, uplinkAddr string, opts Options) (*Server, error) {
	if bsrv.Layout().Control == bcast.ControlNone {
		return nil, errors.New("netcast: the F-Matrix-No layout is a simulation-only ideal and cannot be broadcast")
	}
	if opts.DeltaEvery > 0 && bsrv.Layout().Control != bcast.ControlMatrix {
		return nil, errors.New("netcast: delta transmission requires the matrix layout")
	}
	prog := bsrv.Program()
	if prog != nil && opts.DeltaEvery > 0 {
		return nil, errors.New("netcast: cycle-level deltas (DeltaEvery) do not apply to program mode; use RefreshEvery")
	}
	if opts.SparseGrouped {
		if bsrv.Layout().Control != bcast.ControlGrouped {
			return nil, errors.New("netcast: sparse grouped transmission requires the grouped layout")
		}
		if prog != nil {
			return nil, errors.New("netcast: sparse grouped transmission does not apply to program mode")
		}
	}
	if bsrv.RegroupEvery() > 0 && !opts.SparseGrouped {
		return nil, errors.New("netcast: a regrouping server needs SparseGrouped (the dense grouped format assumes the uniform partition)")
	}
	if opts.RefreshEvery > 0 && prog == nil {
		return nil, errors.New("netcast: RefreshEvery requires a server with a broadcast program")
	}
	reg := opts.Obs
	if reg == nil {
		reg = bsrv.Obs()
	}
	bl, err := net.Listen("tcp", broadcastAddr)
	if err != nil {
		return nil, err
	}
	ul, err := ServeUplink(uplinkAddr, bsrv, reg)
	if err != nil {
		bl.Close()
		return nil, err
	}
	s := &Server{bsrv: bsrv, opts: opts, broadcastLn: bl, uplink: ul, subs: map[net.Conn]struct{}{}, reg: reg}
	s.cFullBytes = reg.Counter("netcast_full_bytes")
	s.cDeltaBytes = reg.Counter("netcast_delta_bytes")
	s.cGroupedBytes = reg.Counter("netcast_grouped_bytes")
	s.cFramesSent = reg.Counter("netcast_frames_sent")
	s.cPatched = reg.Counter("netcast_frames_patched")
	s.cSubsAdded = reg.Counter("netcast_subs_added")
	s.cSubsDropped = reg.Counter("netcast_subs_dropped")
	s.cTxBytes = reg.Counter("netcast_tx_bytes")
	s.cReaps = reg.Counter("netcast_overflow_reaps")
	s.gSubs = reg.Gauge("netcast_subscribers")
	if prog != nil {
		s.program = NewProgramEncoder(prog, opts.RefreshEvery)
	}
	s.wg.Add(1)
	go s.acceptBroadcast()
	return s, nil
}

// TransmittedBytes reports cumulative cycle payload bytes sent as full
// frames and as delta frames (per subscriber transmission counted once;
// the broadcast medium reaches everyone with one transmission).
func (s *Server) TransmittedBytes() (full, delta int64) {
	return s.cFullBytes.Load(), s.cDeltaBytes.Load()
}

// BroadcastAddr reports the broadcast listener's address.
func (s *Server) BroadcastAddr() string { return s.broadcastLn.Addr().String() }

// UplinkAddr reports the uplink listener's address.
func (s *Server) UplinkAddr() string { return s.uplink.Addr() }

// Step produces and transmits one broadcast cycle. It returns the
// number of subscribers that received it. Classic mode sends the cycle
// as one frame (full, delta or sparse-grouped); program mode sends the
// timeline's individual index and bucket frames, where every occurrence
// of an object within the cycle carries the cycle-start control column,
// so validation is identical wherever a client tunes in. A classic frame
// is valid until the next Step builds its own in the same storage.
func (s *Server) Step() (int, error) {
	cb := s.bsrv.StartCycle()
	if cb == nil {
		return 0, server.ErrClosed
	}
	var frames [][]byte
	var one [1][]byte // a classic cycle's frame list, kept off the heap
	var err error
	if s.program != nil {
		var full, delta int64
		frames, full, delta, err = s.program.Encode(cb)
		s.cFullBytes.Add(full)
		s.cDeltaBytes.Add(delta)
	} else {
		one[0], err = s.encodeCycle(cb)
		frames = one[:]
	}
	if err != nil {
		return 0, err
	}
	s.cFramesSent.Add(int64(len(frames)))
	if s.dsender != nil {
		// One datagram transmission reaches every tuned receiver; its
		// cost does not appear in the per-subscriber fan-out.
		if err := s.dsender.SendCycle(int64(cb.Number), frames); err != nil {
			return 0, err
		}
	}
	if s.opts.DeltaEvery > 0 {
		s.prev = cb
	}
	delivered := s.fanOut(cb, frames)
	s.bsrv.Tracer().Emit(obs.EvCycleEnd, obs.ActorServer, int64(cb.Number), int32(len(frames)), int64(delivered))
	return delivered, nil
}

// encodeCycle encodes a classic-mode cycle as its one frame and
// accounts the payload under its kind.
func (s *Server) encodeCycle(cb *bcast.CycleBroadcast) (data []byte, err error) {
	kind := s.cFullBytes
	switch {
	case s.opts.SparseGrouped:
		// The epoch is stable between StartCycle calls, so reading it
		// after StartCycle pairs it with cb's partition.
		epoch := s.bsrv.RegroupEpoch()
		withPart := !s.sentPart || epoch != s.groupedEpoch
		data, err = wire.AppendGroupedCycle(s.frame[:0], cb, epoch, withPart)
		if err == nil {
			s.groupedEpoch, s.sentPart = epoch, true
		}
		kind = s.cGroupedBytes
	case s.opts.DeltaEvery > 0 && s.prev != nil && cb.Number%cmatrix.Cycle(s.opts.DeltaEvery) != 0:
		data, err = wire.AppendCycleDelta(s.frame[:0], s.prev, cb)
		kind = s.cDeltaBytes
	default:
		var patched bool
		if data, patched, err = wire.PatchCycle(s.frame, cb); patched {
			s.cPatched.Inc()
		}
	}
	s.frame = data // on error what PatchCycle left intact, or nothing
	if err != nil {
		return nil, err
	}
	kind.Add(int64(len(data)))
	return data, nil
}

// fanOut writes one cycle's frames to every current subscriber and
// returns how many took all of them. A slow or dead subscriber must not
// stall the broadcast: each gets one write deadline for the cycle and
// all of its frames in one gathered write, and is reaped if that write
// fails. Every subscriber gets the same frames.
func (s *Server) fanOut(cb *bcast.CycleBroadcast, frames [][]byte) int {
	s.mu.Lock()
	if s.stale {
		s.targets = make([]net.Conn, 0, len(s.subs))
		for c := range s.subs {
			s.targets = append(s.targets, c)
		}
		s.stale = false
	}
	s.mu.Unlock()
	timeout := s.opts.WriteTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
		if s.program != nil {
			timeout = 10 * time.Second
		}
	}
	delivered := 0
	for _, conn := range s.targets { // only Step writes the snapshot
		conn.SetWriteDeadline(time.Now().Add(timeout))
		n, err := s.out.write(conn, frames)
		s.cTxBytes.Add(n)
		if err != nil {
			s.reapSub(conn, cb.Number, true)
			continue
		}
		delivered++
	}
	return delivered
}

// reapSub drops a subscriber: one whose send path overflowed — it could
// not drain a cycle within the write deadline, the only departure
// netcast_overflow_reaps counts — or one that hung up or wrote up its
// connection (readSubscriber). Every reap is a trace event, because a
// silently vanishing subscriber looks identical to a doze window from
// the outside and the difference matters when debugging retune storms.
func (s *Server) reapSub(c net.Conn, cycle cmatrix.Cycle, overflow bool) {
	s.mu.Lock()
	_, reaped := s.subs[c]
	if reaped {
		delete(s.subs, c)
		s.stale = true
		c.Close()
		if overflow {
			s.cReaps.Inc()
		}
		s.reg.Update(func() {
			s.cSubsDropped.Inc()
			s.gSubs.Set(int64(len(s.subs)))
		})
	}
	left := len(s.subs)
	s.mu.Unlock()
	if reaped {
		s.bsrv.Tracer().Emit(obs.EvSubReap, obs.ActorServer, int64(cycle), 0, int64(left))
	}
}

// RunTicker calls Step every interval until stop is closed.
func (s *Server) RunTicker(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if _, err := s.Step(); errors.Is(err, server.ErrClosed) {
				return
			}
		}
	}
}

// Obs returns the registry the server's transmission counters live in
// (Options.Obs, defaulting to the broadcast server's own registry).
func (s *Server) Obs() *obs.Registry { return s.reg }

// Subscribers reports the current broadcast subscriber count.
func (s *Server) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Close stops listening and disconnects everything, uplink connections
// included. The underlying broadcast server is left open (close it
// separately).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed, s.stale = true, true
	s.reg.Update(func() {
		s.cSubsDropped.Add(int64(len(s.subs)))
		s.gSubs.Set(0)
	})
	for c := range s.subs {
		c.Close()
		delete(s.subs, c)
	}
	s.mu.Unlock()
	s.broadcastLn.Close()
	s.uplink.Close()
	s.wg.Wait()
}

func (s *Server) acceptBroadcast() {
	defer s.wg.Done()
	for {
		conn, err := s.broadcastLn.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.subs[conn], s.stale = struct{}{}, true
		s.reg.Update(func() {
			s.cSubsAdded.Inc()
			s.gSubs.Set(int64(len(s.subs)))
		})
		s.mu.Unlock()
		// Per-connection reader: tuners never write, so its read blocks
		// until the connection dies.
		s.wg.Add(1)
		go s.readSubscriber(conn)
	}
}

// readSubscriber watches the client-to-server side of a broadcast
// connection, which carries nothing: the server never learns who
// listens. Whatever ends the read reaps the subscriber: any byte that
// arrives (a retired BCQ2 subset filter included), since the broadcast
// socket has no reply channel and disconnection is the refusal, and EOF
// or an error, since the tuner hung up. After a reap by fanOut or a
// Close the connection is already gone and reapSub does nothing.
func (s *Server) readSubscriber(conn net.Conn) {
	defer s.wg.Done()
	var b [1]byte
	conn.Read(b[:])
	s.reapSub(conn, 0, false)
}

// receiver is the transport-independent back half of a tuner: frames
// in, decoded cycles published into a local medium that internal/client
// consumes unchanged. The TCP Tuner feeds it frames off a socket, the
// DatagramTuner frames reassembled from datagrams.
type receiver struct {
	dec    *FrameDecoder
	medium *bcast.Medium
	done   chan struct{}
	err    error
}

func newReceiver() receiver {
	return receiver{dec: NewFrameDecoder(), medium: bcast.NewMedium(), done: make(chan struct{})}
}

// deliver decodes one frame and publishes the cycle it completes, if
// any. False means the stream is terminally corrupt (error recorded).
func (r *receiver) deliver(frame []byte) bool {
	cb, err := r.dec.Decode(frame)
	if err != nil {
		r.err = err
		return false
	}
	if cb != nil {
		r.medium.Publish(cb)
	}
	return true
}

// stop ends the cycle stream. cause is what ended the transport; it is
// recorded unless a decode error already was or it is a plain close.
func (r *receiver) stop(cause error) {
	if r.err == nil && !errors.Is(cause, net.ErrClosed) && !errors.Is(cause, io.EOF) {
		r.err = cause
	}
	r.medium.Close()
	close(r.done)
}

// Subscribe returns a subscription delivering decoded cycles.
func (r *receiver) Subscribe(buffer int) *bcast.Subscription {
	return r.medium.Subscribe(buffer)
}

// Tuner is a client's receiver on the TCP broadcast stream.
type Tuner struct {
	conn net.Conn
	hdr  [4]byte // the length prefix of the frame being read
	receiver
}

// Tune connects to a broadcast address and starts receiving cycles.
func Tune(addr string) (*Tuner, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &Tuner{conn: conn, receiver: newReceiver()}
	go t.loop()
	return t, nil
}

func (t *Tuner) loop() {
	for {
		frame, err := readFrame(t.conn, &t.hdr)
		if err != nil || !t.deliver(frame) {
			t.stop(err)
			return
		}
	}
}

// Close tears the tuner down and waits for its receive loop.
func (t *Tuner) Close() error {
	t.conn.Close()
	<-t.done
	return t.err
}

// Uplink is a TCP implementation of protocol.Uplink. It is safe for
// concurrent use; requests are serialized over one connection, which is
// the realistic model of a scarce uplink.
type Uplink struct {
	mu   sync.Mutex
	conn net.Conn
	fr   frameReader
	buf  []byte // the frame being sent: 4 bytes for its length, then the request
}

// DialUplink connects to a server's uplink address.
func DialUplink(addr string) (*Uplink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Uplink{conn: conn, fr: frameReader{r: conn}}, nil
}

// SubmitUpdate implements protocol.Uplink over the wire: it encodes
// req into the Uplink's buffer behind its length prefix, sends it in
// one write and decodes the reply.
func (u *Uplink) SubmitUpdate(req protocol.UpdateRequest) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.buf = wire.AppendUpdateRequest(append(u.buf[:0], 0, 0, 0, 0), req)
	if err := sendFrame(u.conn, u.buf); err != nil {
		return err
	}
	reply, err := u.fr.next()
	if err != nil {
		return err
	}
	verdict, wireErr := wire.DecodeUpdateReply(reply)
	if wireErr != nil {
		return wireErr
	}
	return verdict
}

// Close closes the uplink connection.
func (u *Uplink) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.conn.Close()
}
