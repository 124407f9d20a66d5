package sim

import (
	"fmt"
	"math"
	"math/rand"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

// The event-wheel engine. Clients are not actors: they are cursors into
// the single shared broadcast timeline. All per-client state lives in
// flat arrays indexed by client id (no per-client heap objects beyond
// the rand source and the validator read-set backing array), and the
// one pending event per client — next read completion or uplink-commit
// arrival — sits on a timing wheel keyed on the cycle clock. At 10^6
// clients the whole simulation state is a handful of large slices.
//
// It is the only execution path. The paper's single client is client 0
// of a one-client wheel drawing from the engine's own stream; what only
// it may use (the §3.3 cache) costs the multi-client runs a nil check.
// Its oracle is testdata/single.golden.
//
// For Clients > 1 the engine is an exact behavioural mirror of the
// legacy heap engine, which survives as the test-only differential
// oracle (legacy_test.go): the same per-client rand streams consumed in
// the same order, the same trace emissions, the same (time, seq) global
// event order. Result is byte-identical between the two for any Config
// both accept.

// mcAction is what a client does when its event fires.
type mcAction int

const (
	actRead   mcAction = iota // perform the scheduled validated read
	actCommit                 // uplink commit arrives at the server
)

// wheelSlots is the ring horizon in broadcast cycles. Client events are
// think-time draws (mean ~ a fraction of a cycle) and uplink latencies,
// so almost everything lands within a few cycles of now; the rare far
// event (a long exponential tail, a doze across many cycles) overflows
// into a min-heap that drains back into the ring as the hand advances.
const wheelSlots = 64

// wheelEvent is one pending client event; seq breaks time ties exactly
// like the legacy engine's heap (global, incremented on every push).
type wheelEvent struct {
	time   float64
	seq    int64
	client int32
}

func wheelEvLess(a, b wheelEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// wheelHeapPush / wheelHeapPop are hand-rolled binary-heap primitives
// over a plain slice (container/heap would box every event into an
// interface — an allocation per push at 10^6 clients).
func wheelHeapPush(h *[]wheelEvent, ev wheelEvent) {
	s := append(*h, ev)
	j := len(s) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !wheelEvLess(s[j], s[p]) {
			break
		}
		s[j], s[p] = s[p], s[j]
		j = p
	}
	*h = s
}

func wheelHeapPop(h *[]wheelEvent) wheelEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	j := 0
	for {
		l := 2*j + 1
		if l >= len(s) {
			break
		}
		m := l
		if r := l + 1; r < len(s) && wheelEvLess(s[r], s[l]) {
			m = r
		}
		if !wheelEvLess(s[m], s[j]) {
			break
		}
		s[j], s[m] = s[m], s[j]
		j = m
	}
	*h = s
	return top
}

// eventWheel is the timing wheel: one slot per broadcast cycle over a
// wheelSlots horizon, each slot a (time, seq) min-heap, plus an
// overflow heap for events beyond the horizon. Because every event in
// slot k strictly precedes every event in slot k+1 (slots partition the
// time axis), draining the current slot's heap before advancing yields
// exactly the global (time, seq) order of one big heap.
type eventWheel struct {
	cycleBits float64
	slots     [][]wheelEvent
	base      int64 // absolute cycle index of the current slot
	cur       int   // ring position of the current slot
	overflow  []wheelEvent
	size      int
}

func newEventWheel(cycleBits float64) *eventWheel {
	return &eventWheel{cycleBits: cycleBits, slots: make([][]wheelEvent, wheelSlots)}
}

func (w *eventWheel) slotOf(t float64) int64 { return int64(math.Floor(t / w.cycleBits)) }

func (w *eventWheel) push(ev wheelEvent) {
	k := w.slotOf(ev.time)
	if k < w.base {
		// Events are never scheduled before the clock; a same-instant
		// event can land exactly on the slot boundary under float
		// rounding — keep it in the current slot.
		k = w.base
	}
	if k >= w.base+int64(len(w.slots)) {
		wheelHeapPush(&w.overflow, ev)
	} else {
		idx := (w.cur + int(k-w.base)) % len(w.slots)
		wheelHeapPush(&w.slots[idx], ev)
	}
	w.size++
}

// pop removes and returns the globally earliest (time, seq) event.
func (w *eventWheel) pop() wheelEvent {
	if len(w.slots[w.cur]) == 0 && w.size == len(w.overflow) {
		// The ring is empty and everything pending is past the horizon:
		// teleport the hand to the earliest overflow slot instead of
		// stepping cycle by cycle.
		if k := w.slotOf(w.overflow[0].time); k > w.base {
			w.base = k
			w.cur = 0
		}
		w.migrate()
	}
	for len(w.slots[w.cur]) == 0 {
		w.base++
		w.cur++
		if w.cur == len(w.slots) {
			w.cur = 0
		}
		w.migrate()
	}
	w.size--
	return wheelHeapPop(&w.slots[w.cur])
}

// migrate drains overflow events that now fall inside the horizon into
// their ring slots. Called on every hand advance, so an overflow event
// is ringed long before its slot becomes current.
func (w *eventWheel) migrate() {
	horizon := w.base + int64(len(w.slots))
	for len(w.overflow) > 0 {
		k := w.slotOf(w.overflow[0].time)
		if k >= horizon {
			break
		}
		ev := wheelHeapPop(&w.overflow)
		if k < w.base {
			k = w.base
		}
		idx := (w.cur + int(k-w.base)) % len(w.slots)
		wheelHeapPush(&w.slots[idx], ev)
	}
}

// wheelEngine packs all per-client simulation state into flat arrays.
type wheelEngine struct {
	e   *engine
	cfg Config

	txnLen int
	// writes is how many of its objects an update transaction writes
	// (ClientTxnWrites, default 1, capped at the transaction length).
	writes int

	// One pending event per client on the wheel.
	wheel *eventWheel
	seq   int64

	// Per-client rand streams: compat mode mirrors the legacy engine's
	// sources bit for bit; compact mode (Config.CompactRNG) stores
	// two-word PCG state flat.
	rands   []*rand.Rand    // compat: one lagged-Fibonacci source per client
	compact []compactSource // compact: flat PCG state, wrapped on the fly

	// Transaction program, flattened: objs[i*txnLen : (i+1)*txnLen].
	objs     []int32
	idx      []int32
	restarts []int32
	done     []int32
	isUpdate []bool
	action   []uint8
	submit   []float64
	readCyc  []cmatrix.Cycle
	// Per-transaction broadcast wait (bit-units) and, when Disks > 0,
	// frames listened to.
	access   []float64
	listened []int64

	// Validator state, flat: exactly one of conj/rmx/cached is non-nil.
	// The cache may serve reads older than ones already made, so a
	// cached run validates in both directions at every algorithm.
	conj   []protocol.ConjunctiveValidator
	rmx    []protocol.RMatrixValidator
	cached []protocol.SnapshotValidator
	// hit is the cached control column the pending read was served from,
	// nil when the read waits on the air (the cache is single-client, so
	// one pending read is all there is, and nothing drops its entry
	// before the read takes a count on it).
	hit protocol.Snapshot

	stats []ClientStats

	// Pop-order watchdog: the wheel must reproduce the legacy heap's
	// global (time, seq) order.
	lastTime float64
	lastSeq  int64
}

// newWheel lays out the per-client state. Clients 0 and 1 are both the
// paper's single client: client 0 on the engine's own stream.
func (e *engine) newWheel() *wheelEngine {
	cfg := e.cfg
	n := max(cfg.Clients, 1)
	w := &wheelEngine{
		e:        e,
		cfg:      cfg,
		txnLen:   cfg.ClientTxnLength,
		writes:   min(max(cfg.ClientTxnWrites, 1), cfg.ClientTxnLength),
		wheel:    newEventWheel(e.cycleBits),
		objs:     make([]int32, n*cfg.ClientTxnLength),
		idx:      make([]int32, n),
		restarts: make([]int32, n),
		done:     make([]int32, n),
		isUpdate: make([]bool, n),
		action:   make([]uint8, n),
		submit:   make([]float64, n),
		readCyc:  make([]cmatrix.Cycle, n),
		access:   make([]float64, n),
		stats:    make([]ClientStats, n),
	}
	if cfg.Disks > 0 {
		w.listened = make([]int64, n)
	}
	switch {
	case e.cache != nil:
		w.cached = make([]protocol.SnapshotValidator, n)
	case cfg.Algorithm == protocol.RMatrix:
		w.rmx = make([]protocol.RMatrixValidator, n)
	default:
		w.conj = make([]protocol.ConjunctiveValidator, n)
	}
	switch {
	case n == 1:
		w.rands = []*rand.Rand{e.rng}
	case cfg.CompactRNG:
		w.compact = make([]compactSource, n)
		for i := range w.compact {
			w.compact[i].seed(cfg.Seed + int64(i+1)*1_000_003)
		}
	default:
		w.rands = make([]*rand.Rand, n)
		for i := range w.rands {
			w.rands[i] = rand.New(rand.NewSource(cfg.Seed + int64(i+1)*1_000_003))
		}
	}
	return w
}

// runWheel executes the simulation on the event wheel.
func (e *engine) runWheel() (*Result, error) {
	cfg := e.cfg
	res := &Result{Config: cfg, Layout: e.srv.Layout()}
	w := e.newWheel()
	for i := range w.stats {
		w.startTxn(i, 0)
		w.push(w.scheduleRead(i, 0), i)
	}

	active := len(w.stats)
	for active > 0 {
		ev := w.wheel.pop()
		if ev.time < w.lastTime || (ev.time == w.lastTime && ev.seq <= w.lastSeq) {
			panic(fmt.Sprintf("sim: event wheel popped out of order: (t=%g seq=%d) after (t=%g seq=%d)",
				ev.time, ev.seq, w.lastTime, w.lastSeq))
		}
		w.lastTime, w.lastSeq = ev.time, ev.seq
		i := int(ev.client)
		if cfg.MaxTime > 0 && ev.time > cfg.MaxTime {
			return nil, fmt.Errorf("%w: MaxTime=%g (client %d)", ErrMaxTime, cfg.MaxTime, i)
		}
		e.now = ev.time

		switch mcAction(w.action[i]) {
		case actRead:
			ok, err := w.read(i)
			if err != nil {
				return nil, err
			}
			if !ok {
				w.restart(i)
				continue
			}
			w.idx[i]++
			if int(w.idx[i]) < w.txnLen {
				w.push(w.scheduleRead(i, e.now), i)
				continue
			}
			if w.isUpdate[i] {
				w.action[i] = uint8(actCommit)
				w.push(e.now+cfg.UplinkLatency, i)
				continue
			}

		case actCommit:
			ok, err := e.submitClientUpdate(w.validator(i).ReadSet(), w.objRow(i)[:w.writes])
			if err != nil {
				return nil, err
			}
			if !ok {
				w.restart(i)
				continue
			}
		}
		if w.nextTxnOrStop(i, res) {
			active--
		}
	}

	e.finalizeResult(res)
	res.PerClient = w.stats
	return res, nil
}

// read performs client i's scheduled read at the current clock — off
// the air against the control snapshot of the cycle it completed in, or
// from the cache against the column kept with the entry — and reports
// whether it passed validation.
func (w *wheelEngine) read(i int) (bool, error) {
	e := w.e
	obj := int(w.objRow(i)[w.idx[i]])
	cycle := w.readCyc[i]
	snap, onAir := w.hit, w.hit == nil
	w.hit = nil
	// Cache hits are stamped frame -1: the value never crossed the air
	// during this transaction, and the server is not pulled forward.
	frame := int32(-1)
	if onAir {
		frame = 0
		e.ensureSnapshot(cycle)
		if snap = e.snaps[cycle]; snap == nil {
			return false, fmt.Errorf("sim: internal error: no snapshot for cycle %d", cycle)
		}
	}
	ok := w.validator(i).TryRead(snap, obj, cycle)
	e.recordRead(int32(i), cycle, frame, obj, ok)
	if ok && onAir && e.cache != nil {
		e.cache.PutColumn(obj, nil, cycle, snap, w.cfg.Objects)
	}
	return ok, nil
}

// restart aborts client i's attempt (a failed read validation or a
// rejected uplink commit) and re-executes the same transaction program
// after the restart delay. The transaction's objects leave the cache:
// an aborted attempt must not be replayed against the same stale
// entries, or a long currency bound could starve it.
func (w *wheelEngine) restart(i int) {
	e := w.e
	w.restarts[i]++
	e.cRestarts.Inc()
	w.validator(i).Reset()
	w.idx[i] = 0
	if e.cache != nil {
		for _, o := range w.objRow(i) {
			e.cache.Remove(int(o))
		}
	}
	w.push(w.scheduleRead(i, e.now+w.cfg.RestartDelay), i)
}

func (w *wheelEngine) objRow(i int) []int32 {
	return w.objs[i*w.txnLen : (i+1)*w.txnLen]
}

func (w *wheelEngine) validator(i int) protocol.Validator {
	switch {
	case w.cached != nil:
		return &w.cached[i]
	case w.rmx != nil:
		return &w.rmx[i]
	}
	return &w.conj[i]
}

func (w *wheelEngine) push(t float64, i int) {
	w.seq++
	w.wheel.push(wheelEvent{time: t, seq: w.seq, client: int32(i)})
}

// expDraw draws an exponential variate from client i's own stream.
func (w *wheelEngine) expDraw(i int, mean float64) float64 {
	if mean == 0 {
		return 0
	}
	if w.compact != nil {
		return w.compact[i].expFloat64() * mean
	}
	return w.rands[i].ExpFloat64() * mean
}

// startTxn mirrors startTxnAt: initialize client i's next transaction
// program with the given submission instant.
func (w *wheelEngine) startTxn(i int, submit float64) {
	cfg := w.cfg
	w.pickObjects(i)
	var upDraw float64
	if cfg.ClientUpdateProb > 0 {
		if w.compact != nil {
			upDraw = w.compact[i].float64()
		} else {
			upDraw = w.rands[i].Float64()
		}
	}
	w.isUpdate[i] = cfg.ClientUpdateProb > 0 && upDraw < cfg.ClientUpdateProb
	w.validator(i).Reset()
	w.idx[i] = 0
	w.restarts[i] = 0
	w.submit[i] = submit
	w.access[i] = 0
	if w.listened != nil {
		w.listened[i] = 0
	}
}

// pickObjects draws the transaction's distinct object set into the
// client's flat row. Compat mode routes through the legacy picker so
// the rand stream is consumed identically; compact mode samples
// allocation-free (rejection with a linear dedup scan — txnLen is
// single digits).
func (w *wheelEngine) pickObjects(i int) {
	row := w.objRow(i)
	if w.compact == nil {
		for k, o := range w.e.pickObjectsFrom(w.rands[i]) {
			row[k] = int32(o)
		}
		return
	}
	src := &w.compact[i]
	for k := 0; k < len(row); {
		var j int
		if w.e.zipf != nil {
			j = w.e.zipf.Pick(src.float64())
		} else {
			j = src.intn(w.cfg.Objects)
		}
		dup := false
		for _, prev := range row[:k] {
			if int(prev) == j {
				dup = true
				break
			}
		}
		if !dup {
			row[k] = int32(j)
			k++
		}
	}
}

// scheduleRead mirrors scheduleReadAt: think time from base, then either
// a fresh cache entry (no wait: the read fires where the think time
// ends) or the object's next transmission, skipping cycles the client's
// tuner misses (doze or frame loss). The read's cycle is recorded for
// validation at fire time.
func (w *wheelEngine) scheduleRead(i int, base float64) float64 {
	e := w.e
	start := base + w.expDraw(i, w.cfg.MeanInterOpDelay)
	obj := int(w.objRow(i)[w.idx[i]])
	w.action[i] = uint8(actRead)
	if e.cache != nil {
		// A stale entry is invalidated locally, no communication.
		if _, cycle, snap, ok := e.cache.Get(obj, e.cycleOf(start)); ok {
			e.cCacheHits.Inc()
			w.readCyc[i], w.hit = cycle, snap
			return start
		}
	}
	ready, cycle := w.airRead(i, start, obj)
	w.readCyc[i] = cycle
	w.access[i] += ready - start
	return ready
}

// airRead waits out the broadcast program for object j from instant at
// — the one place a simulated read waits for the air — modelling the
// tuner: with a (1,m) index the client listens to a probe frame, the
// next index segment, and the object's frame (dozing in between);
// without an index it listens to every frame until the object arrives
// (counted only when Disks > 0 reports tuning). A fault-dropped cycle
// costs the listening but carries no data: it is traced as a doze and
// the attempt repeats from the next cycle.
func (w *wheelEngine) airRead(i int, at float64, j int) (float64, cmatrix.Cycle) {
	e := w.e
	tl := e.timeline
	for {
		var ready float64
		var cycle int64
		if w.cfg.IndexM > 0 {
			listened := int64(1)
			probeEnd := tl.NextFrameEnd(at)
			direct, directCycle := tl.NextReady(at, j)
			if direct == probeEnd {
				// The probe frame happened to be the object itself.
				ready, cycle = direct, directCycle
			} else {
				idxEnd, _ := tl.NextIndexEnd(at) // IndexM > 0: there is one
				if idxEnd != probeEnd {
					listened++ // a separate probe, then the index segment
				}
				ready, cycle = tl.NextReady(idxEnd, j)
				listened++ // the object's data frame
			}
			w.listened[i] += listened
			e.dozed += tl.FramesIn(at, ready) - listened
		} else {
			// No index: the tuner cannot doze, it decodes every frame
			// until the object comes around.
			ready, cycle = tl.NextReady(at, j)
			if w.listened != nil {
				w.listened[i] += tl.FramesIn(at, ready)
			}
		}
		if e.faults == nil || !e.faults.Missed(i, cmatrix.Cycle(cycle)) {
			return ready, cmatrix.Cycle(cycle)
		}
		e.trace.Emit(obs.EvDoze, int32(i), cycle, 0, 1)
		at = e.retryAfter(cycle, j)
		if w.cfg.MaxTime > 0 && at > w.cfg.MaxTime {
			// Past the guard: stop waiting out faults; the event fires
			// beyond MaxTime and the run ends there with ErrMaxTime.
			return at, cmatrix.Cycle(cycle)
		}
	}
}

// retryAfter is the instant a read of object j that missed major cycle
// c (1-based) tunes in again: the boundary that closes c. The timeline
// counts an exact boundary into the cycle it ends, so when j's own frame
// is the one that closes the cycle NextReady at the boundary would hand
// the missed transmission back forever; that read resumes just past it.
func (e *engine) retryAfter(c int64, j int) float64 {
	at := float64(c) * e.cycleBits
	if _, again := e.timeline.NextReady(at, j); again <= c {
		at = math.Nextafter(at, math.Inf(1))
	}
	return at
}

// nextTxnOrStop mirrors the legacy transaction bookkeeping: record the
// completed transaction and either schedule client i's next one or
// report that the client finished its workload.
func (w *wheelEngine) nextTxnOrStop(i int, res *Result) (stopped bool) {
	cfg, e := w.cfg, w.e
	e.hRestartsTxn.Observe(int64(w.restarts[i]))
	if int(w.done[i]) >= cfg.MeasureFrom {
		if w.isUpdate[i] {
			res.UpdateResponseTime.Add(e.now - w.submit[i])
			res.UpdateRestarts.Add(float64(w.restarts[i]))
			w.stats[i].UpdateResponseTime.Add(e.now - w.submit[i])
		} else {
			res.ResponseTime.Add(e.now - w.submit[i])
			res.Restarts.Add(float64(w.restarts[i]))
			w.stats[i].ResponseTime.Add(e.now - w.submit[i])
			w.stats[i].Restarts.Add(float64(w.restarts[i]))
		}
		res.AccessTime.Add(w.access[i])
		if w.listened != nil {
			res.TuningFrames.Add(float64(w.listened[i]))
		}
	}
	if cfg.Audit && !w.isUpdate[i] {
		e.auditReadSets = append(e.auditReadSets, w.validator(i).ReadSet())
	}
	w.done[i]++
	if int(w.done[i]) >= cfg.ClientTxns {
		return true
	}
	submit := e.now + w.expDraw(i, cfg.MeanInterTxnDelay)
	w.startTxn(i, submit)
	w.push(w.scheduleRead(i, submit), i)
	return false
}
