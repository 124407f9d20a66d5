package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
)

// deliveryLimit is how long one cycle may take to reach the tuners
// before the watchdog closes them and the run fails.
const deliveryLimit = 10 * time.Second

// txnSlot is one read-only transaction in flight on one client.
type txnSlot struct {
	txn     *client.ReadTxn
	objs    []int    // objects the transaction reads, drawn when it begins
	vals    [][]byte // values its reads returned
	done    int      // reads performed so far
	elapsed int64    // time spent in earlier cycles of a multi-cycle transaction
	span    int32    // open client.read_txn span in a traced cycle, else -1
}

// finished is a committed transaction waiting for its values to be
// checked against the shadow, after the cycle's clock has stopped.
type finished struct {
	slot *txnSlot
	rs   []protocol.ReadAt
}

// driver is one live stack — server, netcast pair on loopback TCP,
// tuners, clients, uplink — plus the single goroutine's worth of state
// that drives it in lock-step and checks everything it returns.
type driver struct {
	sp *spec
	g  *gen
	sh *shadow
	// readRng draws the read-only transactions' objects. It is apart
	// from the update generator's so that the replay's twin server, which
	// runs no reads, still sees the same update stream.
	readRng *rand.Rand

	srv *server.Server
	ns  *netcast.Server

	tuners  []*netcast.Tuner
	clients []*client.Client
	slots   [][]txnSlot // per client
	uplink  protocol.Uplink
	tcpUp   *netcast.Uplink
	store   *qcache.Store
	dir     string // scratch directory of this stack (qcache segments)

	cycle    cmatrix.Cycle // cycle currently on the air
	pending  []finished
	accepted []int // indices into g.reqs accepted this cycle

	// Operation counts. An operation is an update submission, a cycle
	// delivery per tuner, or a read-only transaction; failed counts
	// anything the shadow did not predict.
	attempted, failed    int64
	nAccepted, nRejected int64
	nReadTxns, nRestarts int64
	failNotes            []string

	// progress is bumped every cycle; the watchdog closes the tuners when
	// it stops moving, so a lost frame fails the run instead of hanging it.
	progress  atomic.Int64
	watchStop chan struct{}
	watchDone chan struct{}
}

func (d *driver) fail(format string, args ...any) {
	d.failed++
	if len(d.failNotes) < 8 {
		d.failNotes = append(d.failNotes, fmt.Sprintf(format, args...))
	}
}

// newDriver builds the stack for sp in dir, tunes in, and puts cycle 1
// on the air. audit turns on the server's commit log for VerifyControl.
func newDriver(sp *spec, seed int64, audit bool, dir string) (d *driver, err error) {
	d = &driver{sp: sp, g: newGen(sp, seed), sh: newShadow(sp.objects), dir: dir,
		readRng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	cfg := serverConfig(sp)
	cfg.Audit = audit
	if d.srv, err = server.New(cfg); err != nil {
		return d, err
	}
	d.ns, err = netcast.Serve(d.srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	if sp.store {
		if err = os.MkdirAll(dir, 0o755); err != nil {
			return d, err
		}
		if d.store, err = qcache.Open(dir); err != nil {
			return d, err
		}
	}
	for i := 0; i < sp.tuners; i++ {
		t, err := netcast.Tune(d.ns.BroadcastAddr())
		if err != nil {
			return d, err
		}
		d.tuners = append(d.tuners, t)
		c := client.New(client.Config{
			Algorithm:     sp.alg,
			CacheCurrency: cmatrix.Cycle(sp.cacheCurrency),
			CacheSize:     sp.cacheSize,
			Store:         d.store,
			ClientID:      int32(i),
		}, t.Subscribe(4))
		d.clients = append(d.clients, c)
		slots := make([]txnSlot, sp.readTxns)
		for s := range slots {
			slots[s] = txnSlot{objs: make([]int, sp.txnReads), vals: make([][]byte, sp.txnReads), span: -1}
		}
		d.slots = append(d.slots, slots)
	}
	d.uplink = d.srv
	if sp.tcpUplink {
		if d.tcpUp, err = netcast.DialUplink(d.ns.UplinkAddr()); err != nil {
			return d, err
		}
		d.uplink = d.tcpUp
	}
	// The accept loop registers subscribers asynchronously; the first
	// frame must not leave before all of them are on the list.
	for deadline := time.Now().Add(5 * time.Second); d.ns.Subscribers() != sp.tuners; {
		if time.Now().After(deadline) {
			return d, fmt.Errorf("%d of %d tuners subscribed after 5s", d.ns.Subscribers(), sp.tuners)
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.pending = make([]finished, 0, sp.tuners*sp.readTxns)
	d.accepted = make([]int, 0, sp.updates)
	d.watchStop, d.watchDone = make(chan struct{}), make(chan struct{})
	go d.watchdog()
	// Cycle 1 carries the initial values. Updates read at the cycle on
	// the air, and the server rejects any read stamped with cycle 0.
	if !d.stepAndAwait(nil, nil, -1) {
		return d, fmt.Errorf("first cycle: %s", strings.Join(d.failNotes, "; "))
	}
	return d, nil
}

func (d *driver) watchdog() {
	defer close(d.watchDone)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	last, since := d.progress.Load(), time.Now()
	for {
		select {
		case <-d.watchStop:
			return
		case <-t.C:
			if p := d.progress.Load(); p != last {
				last, since = p, time.Now()
			} else if time.Since(since) > deliveryLimit {
				for _, tn := range d.tuners {
					tn.Close()
				}
				return
			}
		}
	}
}

// close tears the stack down and removes its scratch directory.
func (d *driver) close() {
	if d.watchStop != nil {
		close(d.watchStop)
		<-d.watchDone
	}
	if d.tcpUp != nil {
		d.tcpUp.Close()
	}
	for _, c := range d.clients {
		c.Cancel()
	}
	for _, t := range d.tuners {
		t.Close()
	}
	if d.ns != nil {
		d.ns.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.store != nil {
		d.store.Close()
	}
	if d.sp.store {
		os.RemoveAll(d.dir)
	}
}

// stepAndAwait broadcasts the next cycle and waits until every client
// has made it current. It reports false when the audience is gone.
func (d *driver) stepAndAwait(rec *recorder, tr *tracer, root int32) bool {
	cyc := int32(d.cycle)
	t0 := now()
	n, err := d.ns.Step()
	t1 := now()
	if rec != nil {
		rec.s[serStep].add(t1 - t0)
	}
	if tr != nil {
		tr.add(spStep, root, cyc, t0, t1)
	}
	if err != nil || n != d.sp.tuners {
		d.fail("cycle %d: Step delivered to %d of %d subscribers (err %v)", d.cycle+1, n, d.sp.tuners, err)
		return false
	}
	d.cycle++
	deliver := int32(-1)
	if tr != nil {
		deliver = tr.open(spDeliver, root, cyc, t1)
	}
	ta := t1
	for i, c := range d.clients {
		d.attempted++
		cb, ok := c.AwaitCycle()
		if !ok {
			d.fail("cycle %d: tuner %d closed (delivery took over %v, or the stream broke)", d.cycle, i, deliveryLimit)
			return false
		}
		if cb.Number != d.cycle {
			d.fail("cycle %d: tuner %d made cycle %d current", d.cycle, i, cb.Number)
			return false
		}
		if tr != nil {
			tb := now()
			tr.add(spAwait, deliver, cyc, ta, tb)
			ta = tb
		}
	}
	if tr != nil {
		tr.close(deliver, ta)
	}
	d.progress.Add(1)
	return true
}

// isReject classifies an uplink error: a conflict verdict (in-process
// or relayed as text over TCP) is an answer, anything else a fault.
func isReject(err error) bool {
	return errors.Is(err, server.ErrConflict) || strings.Contains(err.Error(), server.ErrConflict.Error())
}

// runCycle drives one lock-step cycle: updates, Step, delivery, reads.
// rec receives the timings (nil during warm-up); tr, when non-nil,
// records spans. Everything between the cycle's two clock readings is a
// call into the program or the bookkeeping that a verdict needs;
// generating inputs and checking values happen outside them.
func (d *driver) runCycle(rec *recorder, tr *tracer) bool {
	sp := d.sp
	d.g.next(d.cycle)
	for ci := range d.slots {
		for si := range d.slots[ci] {
			if s := &d.slots[ci][si]; s.txn == nil {
				for k := range s.objs {
					s.objs[k] = d.readRng.Intn(sp.objects)
				}
			}
		}
	}
	d.accepted = d.accepted[:0]
	d.pending = d.pending[:0]
	cyc := int32(d.cycle)
	root := int32(-1)

	t0 := now()
	if tr != nil {
		root = tr.open(spCycle, -1, cyc, t0)
	}
	// (1) update transactions, one at a time, each waiting for its verdict.
	t := t0
	for u := range d.g.reqs {
		req := &d.g.reqs[u]
		wantReject := d.sh.predictReject(req)
		err := d.uplink.SubmitUpdate(*req)
		te := now()
		if rec != nil {
			rec.s[serCommit].add(te - t)
		}
		if tr != nil {
			tr.add(spSubmit, root, cyc, t, te)
		}
		t = te
		d.attempted++
		switch {
		case err == nil:
			d.nAccepted++
			d.accepted = append(d.accepted, u)
			for _, w := range req.Writes {
				d.sh.lastWrite[w.Obj] = d.cycle
			}
		case isReject(err):
			d.nRejected++
		default:
			d.fail("cycle %d update %d: %v", d.cycle, u, err)
			return false
		}
		if (err != nil) != wantReject {
			d.fail("cycle %d update %d: verdict %v, shadow predicted reject=%v", d.cycle, u, err, wantReject)
		}
	}
	// (2) + (3) broadcast and delivery.
	commitCycle := d.cycle
	if !d.stepAndAwait(rec, tr, root) {
		return false
	}
	// (4) read-only transactions.
	for ci, c := range d.clients {
		for si := range d.slots[ci] {
			d.readSlot(c, &d.slots[ci][si], rec, tr, root, cyc)
		}
	}
	if sp.compactEvery > 0 && int(d.cycle)%sp.compactEvery == 0 {
		tc := now()
		err := d.store.Compact()
		if tr != nil {
			tr.add(spCompact, root, cyc, tc, now())
		}
		if err != nil {
			d.fail("cycle %d: compact: %v", d.cycle, err)
		}
	}
	t1 := now()
	if rec != nil {
		rec.s[serCycle].add(t1 - t0)
	}
	if tr != nil {
		tr.close(root, t1)
	}

	// Off the clock: accepted writes land in the shadow as of the cycle
	// just broadcast, then every committed read is checked against it.
	for _, u := range d.accepted {
		for w, wr := range d.g.reqs[u].Writes {
			d.sh.accept(wr.Obj, commitCycle, d.g.seqs[u][w])
		}
	}
	for _, f := range d.pending {
		d.checkReads(f)
	}
	return true
}

// readSlot advances one transaction by its share of reads for this
// cycle, committing it when all reads are done. A read the
// read-condition refuses is a restart: counted, and the transaction
// dropped (RunReadOnly's retry would wait for a cycle the lock-step
// driver has not produced yet).
func (d *driver) readSlot(c *client.Client, s *txnSlot, rec *recorder, tr *tracer, root, cyc int32) {
	t := now()
	start := t
	if s.txn == nil {
		s.txn = c.BeginReadOnly()
		s.done, s.elapsed = 0, 0
		if tr != nil {
			s.span = tr.open(spReadTxn, root, cyc, t)
		}
	}
	for k := d.sp.txnReads / d.sp.txnSpan; k > 0; k-- {
		v, err := s.txn.Read(s.objs[s.done])
		if tr != nil {
			te := now()
			// A transaction begun in an untraced cycle has no span to
			// hang its reads on; they hang on the cycle.
			parent := s.span
			if parent < 0 {
				parent = root
			}
			tr.add(spRead, parent, cyc, t, te)
			t = te
		}
		if err != nil {
			if !errors.Is(err, client.ErrInconsistentRead) {
				d.fail("cycle %d: read of %d: %v", d.cycle, s.objs[s.done], err)
			}
			d.nRestarts++
			d.finishTxn(s, rec, tr, start)
			return
		}
		s.vals[s.done] = v
		s.done++
	}
	if s.done < d.sp.txnReads {
		s.elapsed += now() - start
		return
	}
	rs, err := s.txn.Commit()
	d.finishTxn(s, rec, tr, start)
	if err != nil {
		d.fail("cycle %d: commit of read-only transaction: %v", d.cycle, err)
		return
	}
	d.pending = append(d.pending, finished{slot: s, rs: rs})
}

// finishTxn closes the books on a committed or aborted transaction.
func (d *driver) finishTxn(s *txnSlot, rec *recorder, tr *tracer, start int64) {
	end := now()
	d.attempted++
	d.nReadTxns++
	if rec != nil {
		rec.s[serReadTxn].add(s.elapsed + end - start)
	}
	if tr != nil && s.span >= 0 {
		tr.close(s.span, end)
	}
	s.txn, s.span = nil, -1
}

// checkReads compares every value a committed transaction returned
// with the shadow's version as of the cycle the read was served from
// (the current cycle off the air, an earlier one out of the cache).
func (d *driver) checkReads(f finished) {
	if len(f.rs) != d.sp.txnReads {
		d.fail("cycle %d: read set has %d entries, transaction made %d reads", d.cycle, len(f.rs), d.sp.txnReads)
		return
	}
	for k, r := range f.rs {
		obj, seq, ok := unstamp(f.slot.vals[k], d.sp.objBytes)
		if !ok || obj != f.slot.objs[k] || r.Obj != obj {
			d.fail("cycle %d: read %d of object %d returned a value stamped (%d,%d), intact=%v", d.cycle, k, f.slot.objs[k], obj, seq, ok)
			return
		}
		want, known := d.sh.at(obj, r.Cycle)
		if !known || r.Cycle > d.cycle || d.cycle-r.Cycle > cmatrix.Cycle(d.sp.cacheCurrency)+cmatrix.Cycle(d.sp.txnSpan) {
			d.fail("cycle %d: read of object %d claims cycle %d, outside what the shadow and the currency bound allow", d.cycle, obj, r.Cycle)
			return
		}
		if seq != want {
			d.fail("cycle %d: object %d read at cycle %d returned version %d, shadow says %d", d.cycle, obj, r.Cycle, seq, want)
			return
		}
	}
}

// finalChecks are the end-of-run invariants: nobody was reaped and the
// audience is the one that tuned in.
func (d *driver) finalChecks() {
	if n := d.ns.Obs().Counter("netcast_overflow_reaps").Load(); n != 0 {
		d.fail("netcast_overflow_reaps = %d", n)
	}
	if n := d.ns.Subscribers(); n != d.sp.tuners {
		d.fail("subscriber count moved: %d, want %d", n, d.sp.tuners)
	}
	if d.store != nil {
		if n := d.clients[0].Obs().Counter("client_cache_store_errors").Load(); n != 0 {
			d.fail("client_cache_store_errors = %d", n)
		}
	}
}
