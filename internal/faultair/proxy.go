package faultair

import (
	"io"
	"net"
	"sync"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/netcast"
)

// Proxy injects faults into a real netcast broadcast stream: it accepts
// TCP subscribers, dials the true broadcast address for each, and
// forwards frames through the fault schedule. Tuners point at the proxy
// instead of the server and otherwise work unchanged (a dropped delta
// frame desynchronizes the tuner until the next full frame, exactly as
// a real reception gap would).
//
// The schedule is keyed by the subscriber's *frame index* on its
// connection (1, 2, 3, ... in arrival order) rather than by decoded
// cycle number — the proxy never parses payloads. For a subscriber
// connected before the first cycle the two coincide. Client ids are
// assigned in accept order.
type Proxy struct {
	sched    *Schedule
	upstream string
	ln       net.Listener

	mu     sync.Mutex
	nextID int
	closed bool
	conns  map[net.Conn]bool
	stats  ListenStats
	wg     sync.WaitGroup
}

// NewProxy listens on listenAddr (e.g. "127.0.0.1:0") and relays the
// broadcast stream from upstreamAddr through the fault schedule.
func NewProxy(listenAddr, upstreamAddr string, sched *Schedule) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{sched: sched, upstream: upstreamAddr, ln: ln, conns: map[net.Conn]bool{}}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr reports the proxy's listen address — what tuners should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats returns aggregate frame counters across all subscribers.
func (p *Proxy) Stats() ListenStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops accepting and tears down every relayed connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			down.Close()
			return
		}
		id := p.nextID
		p.nextID++
		p.conns[down] = true
		p.wg.Add(1)
		p.mu.Unlock()
		go p.relay(down, id)
	}
}

// track registers/unregisters a connection for Close.
func (p *Proxy) track(c net.Conn, on bool) {
	p.mu.Lock()
	if on && !p.closed {
		p.conns[c] = true
	} else {
		delete(p.conns, c)
	}
	p.mu.Unlock()
}

func (p *Proxy) count(f func(*ListenStats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

func (p *Proxy) relay(down net.Conn, client int) {
	defer p.wg.Done()
	defer p.track(down, false)
	defer down.Close()
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	p.track(up, true)
	defer p.track(up, false)
	defer up.Close()
	// The broadcast stream is one-way; a read on the downstream side
	// only ever returns when the subscriber goes away. Use that to tear
	// the relay down from either end.
	go func() {
		io.Copy(io.Discard, down)
		up.Close()
	}()

	var queue [][]byte // held (delayed) frames, in order
	var idx, release int64
	for {
		frame, err := netcast.ReadFrame(up)
		if err != nil {
			return
		}
		idx++
		at := cmatrix.Cycle(idx)
		switch {
		case p.sched.Disconnected(client, at):
			// Cut the subscriber off; it may redial (getting a fresh
			// client id), exactly like a tuner re-establishing a lost
			// connection.
			p.count(func(st *ListenStats) { st.Disconnects++ })
			return
		case p.sched.Dozing(client, at):
			p.count(func(st *ListenStats) { st.Dozed++ })
			continue
		case p.sched.Dropped(client, at):
			p.count(func(st *ListenStats) { st.Dropped++ })
			continue
		}
		if d := p.sched.Delay(client, at); d > 0 {
			p.count(func(st *ListenStats) { st.Delayed++ })
			if rel := idx + int64(d); rel > release {
				release = rel
			}
			queue = append(queue, frame)
			continue
		}
		queue = append(queue, frame)
		if idx >= release {
			for _, f := range queue {
				// Count before writing: a reader that has the frame must
				// already see it in Stats.
				p.count(func(st *ListenStats) { st.Delivered++ })
				if err := netcast.WriteFrame(down, f); err != nil {
					return
				}
			}
			queue = queue[:0]
		}
	}
}
