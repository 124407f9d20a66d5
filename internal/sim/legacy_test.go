package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

// The legacy heap-per-event multi-client engine, kept as the
// byte-identity oracle for the event wheel: sim.Run runs every client
// count on the wheel, and wheel_diff_test.go drives this engine through
// newEngine.
//
// Multi-client simulation. The paper simulates a single client because
// the protocols' read-only validation is purely local: "the performance
// of the outlined concurrency control mechanisms for read-only
// transactions is independent of the number of clients". This engine
// makes that claim testable — N clients drive a shared broadcast
// through a global event queue — and is required once client *update*
// transactions (our future-work extension) are in play, because uplink
// commits from different clients genuinely interact.

// mcClient is one simulated client's state machine.
type mcClient struct {
	id   int
	rng  *rand.Rand
	flat bcast.Layout // the paper's flat disk, the oracle's own clock

	validator protocol.Validator
	objs      []int
	idx       int
	isUpdate  bool
	writes    int
	submit    float64
	access    float64
	restarts  int
	done      int

	action    mcAction
	readCycle cmatrix.Cycle

	stats ClientStats
}

// mcEvent is a heap entry; seq breaks time ties deterministically.
type mcEvent struct {
	time   float64
	seq    int64
	client *mcClient
}

type mcHeap []mcEvent

func (h mcHeap) Len() int { return len(h) }
func (h mcHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h mcHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mcHeap) Push(x any)   { *h = append(*h, x.(mcEvent)) }
func (h *mcHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// runMulti executes the event-driven multi-client simulation.
func (e *engine) runMulti() (*Result, error) {
	cfg := e.cfg
	res := &Result{Config: cfg, Layout: e.srv.Layout()}
	clients := make([]*mcClient, cfg.Clients)
	var events mcHeap
	var seq int64
	push := func(t float64, c *mcClient) {
		seq++
		heap.Push(&events, mcEvent{time: t, seq: seq, client: c})
	}
	// The oracle waits on the flat clock bcast.Layout.NextReady, not on
	// the engine's timeline, so the differential checks the wheel's wait
	// too (TestFlatTimelineMatchesSchedule pins the two against each
	// other).

	for i := range clients {
		c := &mcClient{
			id:   i,
			rng:  rand.New(rand.NewSource(cfg.Seed + int64(i+1)*1_000_003)),
			flat: e.srv.Layout(),
		}
		clients[i] = c
		e.startTxnAt(c, 0)
		push(e.scheduleReadAt(c, 0), c)
	}

	active := len(clients)
	for active > 0 {
		ev := heap.Pop(&events).(mcEvent)
		c := ev.client
		if cfg.MaxTime > 0 && ev.time > cfg.MaxTime {
			return nil, fmt.Errorf("%w: MaxTime=%g in multi-client run (client %d)", ErrMaxTime, cfg.MaxTime, c.id)
		}
		e.now = ev.time

		switch c.action {
		case actRead:
			obj := c.objs[c.idx]
			e.ensureSnapshot(c.readCycle)
			snap := e.snaps[c.readCycle]
			if snap == nil {
				return nil, fmt.Errorf("sim: internal error: no snapshot for cycle %d", c.readCycle)
			}
			ok := c.validator.TryRead(snap, obj, c.readCycle)
			e.recordRead(int32(c.id), c.readCycle, 0, obj, ok)
			if !ok {
				// Abort: restart the same transaction program.
				c.restarts++
				e.cRestarts.Inc()
				c.validator.Reset()
				c.idx = 0
				push(e.scheduleReadAt(c, e.now+cfg.RestartDelay), c)
				continue
			}
			c.idx++
			if c.idx < len(c.objs) {
				push(e.scheduleReadAt(c, e.now), c)
				continue
			}
			if c.isUpdate {
				c.action = actCommit
				push(e.now+cfg.UplinkLatency, c)
				continue
			}
			if e.nextTxnOrStop(c, res, push) {
				active--
			}

		case actCommit:
			writes := make([]int32, c.writes)
			for k, o := range c.objs[:c.writes] {
				writes[k] = int32(o)
			}
			ok, err := e.submitClientUpdate(c.validator.ReadSet(), writes)
			if err != nil {
				return nil, err
			}
			if !ok {
				c.restarts++
				e.cRestarts.Inc()
				c.validator.Reset()
				c.idx = 0
				c.action = actRead
				push(e.scheduleReadAt(c, e.now+cfg.RestartDelay), c)
				continue
			}
			if e.nextTxnOrStop(c, res, push) {
				active--
			}
		}
	}

	e.finalizeResult(res)
	res.PerClient = make([]ClientStats, len(clients))
	for i, c := range clients {
		res.PerClient[i] = c.stats
	}
	return res, nil
}

// clientExp draws an exponential variate from the client's own stream.
func (e *engine) clientExp(c *mcClient, mean float64) float64 {
	if mean == 0 {
		return 0
	}
	return c.rng.ExpFloat64() * mean
}

// startTxnAt initializes the client's next transaction program with the
// given submission instant (after the inter-transaction delay).
func (e *engine) startTxnAt(c *mcClient, submit float64) {
	cfg := e.cfg
	c.objs = e.pickObjectsFrom(c.rng)
	c.isUpdate = cfg.ClientUpdateProb > 0 && c.rng.Float64() < cfg.ClientUpdateProb
	c.writes = 0
	if c.isUpdate {
		c.writes = cfg.ClientTxnWrites
		if c.writes == 0 {
			c.writes = 1
		}
		if c.writes > len(c.objs) {
			c.writes = len(c.objs)
		}
	}
	c.validator = protocol.NewValidator(cfg.Algorithm)
	c.idx = 0
	c.restarts = 0
	c.submit = submit
	c.access = 0
	c.action = actRead
}

// scheduleReadAt computes when the client's next read completes: think
// time from base, then the object's next transmission. The read's cycle
// is recorded on the client for validation at fire time.
func (e *engine) scheduleReadAt(c *mcClient, base float64) float64 {
	start := base + e.clientExp(c, e.cfg.MeanInterOpDelay)
	ready, cycle := c.nextReady(start, c.objs[c.idx])
	// Skip cycles this client's tuner misses (doze or frame loss); the
	// read completes at the object's next transmission in a received
	// cycle. The MaxTime guard fires in runMulti when the event pops.
	for e.faults != nil && e.faults.Missed(c.id, cycle) {
		e.trace.Emit(obs.EvDoze, int32(c.id), int64(cycle), 0, 1)
		ready, cycle = c.nextReady(float64(cycle)*e.cycleBits, c.objs[c.idx])
	}
	c.readCycle = cycle
	c.access += ready - start
	c.action = actRead
	return ready
}

func (c *mcClient) nextReady(t float64, j int) (float64, cmatrix.Cycle) {
	ready, cycle := c.flat.NextReady(t, j)
	return ready, cmatrix.Cycle(cycle)
}

// nextTxnOrStop records the completed transaction and either schedules
// the client's next one (after the inter-transaction delay) or reports
// that the client finished its workload.
func (e *engine) nextTxnOrStop(c *mcClient, res *Result, push func(float64, *mcClient)) (stopped bool) {
	cfg := e.cfg
	e.hRestartsTxn.Observe(int64(c.restarts))
	if c.done >= cfg.MeasureFrom {
		if c.isUpdate {
			res.UpdateResponseTime.Add(e.now - c.submit)
			res.UpdateRestarts.Add(float64(c.restarts))
			c.stats.UpdateResponseTime.Add(e.now - c.submit)
		} else {
			res.ResponseTime.Add(e.now - c.submit)
			res.Restarts.Add(float64(c.restarts))
			c.stats.ResponseTime.Add(e.now - c.submit)
			c.stats.Restarts.Add(float64(c.restarts))
		}
		res.AccessTime.Add(c.access)
	}
	if cfg.Audit && !c.isUpdate {
		e.auditReadSets = append(e.auditReadSets, c.validator.ReadSet())
	}
	c.done++
	if c.done >= cfg.ClientTxns {
		return true
	}
	submit := e.now + e.clientExp(c, cfg.MeanInterTxnDelay)
	e.startTxnAt(c, submit)
	push(e.scheduleReadAt(c, submit), c)
	return false
}
