package faultair

import (
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/obs"
)

// Source is anything a client can tune to: bcast.Medium, server.Server
// and netcast.Tuner all satisfy it.
type Source interface {
	Subscribe(buffer int) *bcast.Subscription
}

// Listener counters, registered on the registry Listen is given.
const (
	CtrDelivered = "faultair_frames_delivered" // frames republished to the client
	CtrDozed     = "faultair_frames_dozed"     // frames missed because the receiver was powered down
	CtrDropped   = "faultair_frames_dropped"   // frames lost in transit
)

// Listener is one client's lossy tuner: it subscribes to a perfect
// source, drops every cycle the fault schedule says the client misses,
// and republishes the rest — in cycle order — into a private medium the
// client subscribes to. The client runtime (internal/client) works
// unchanged on top.
type Listener struct {
	sched  *Schedule
	client int
	out    *bcast.Medium
	stop   chan struct{}
	done   chan struct{}

	delivered, dozed, dropped *obs.Counter
}

// Listen starts a lossy tuner for the given client id. buffer is the
// upstream subscription depth (as in Source.Subscribe); use a generous
// buffer unless the point is to also model receiver backlog overflow.
// reg (may be nil) receives the faultair_* counters.
func Listen(src Source, sched *Schedule, client, buffer int, reg *obs.Registry) *Listener {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := &Listener{
		sched:     sched,
		client:    client,
		out:       bcast.NewMedium(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		delivered: reg.Counter(CtrDelivered),
		dozed:     reg.Counter(CtrDozed),
		dropped:   reg.Counter(CtrDropped),
	}
	// Subscribe before returning so no frame published after Listen can
	// be missed for lack of a subscription.
	go l.loop(src.Subscribe(buffer))
	return l
}

func (l *Listener) loop(sub *bcast.Subscription) {
	defer close(l.done)
	defer l.out.Close()
	defer sub.Cancel()
	for {
		var cb *bcast.CycleBroadcast
		var ok bool
		select {
		case <-l.stop:
			return
		case cb, ok = <-sub.C:
		}
		if !ok {
			return
		}
		switch {
		case l.sched.Dozing(l.client, cb.Number):
			l.dozed.Inc()
		case l.sched.Dropped(l.client, cb.Number):
			l.dropped.Inc()
		default:
			l.out.Publish(cb)
			l.delivered.Inc()
		}
		cb.Release() // the delivery's count; out holds its own
	}
}

// Subscribe returns a subscription carrying the faulted stream.
func (l *Listener) Subscribe(buffer int) *bcast.Subscription {
	return l.out.Subscribe(buffer)
}

// Close tears the listener down: the receive loop exits, its upstream
// subscription is cancelled, and the client-facing medium is closed
// (clients see their subscription end). Call it once.
func (l *Listener) Close() {
	close(l.stop)
	<-l.done
}
