package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/faultair"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/stats"
)

// Result summarizes one simulation run. Response times are in
// bit-units, measured over the transactions after the warmup.
type Result struct {
	Config Config
	Layout bcast.Layout

	// ResponseTime aggregates per-transaction response times: the time
	// from submission to commit, including all restarts.
	ResponseTime stats.Sample
	// ResponseCI is the 95% confidence interval of the mean response
	// time.
	ResponseCI stats.Interval
	// Restarts aggregates per-transaction restart counts.
	Restarts stats.Sample
	// RestartRatio is total restarts divided by measured transactions
	// (the paper's transaction restart ratio).
	RestartRatio float64

	// AccessTime aggregates per-transaction broadcast wait (bit-units
	// summed over the transaction's reads and restarts — the paper's
	// access time, the latency component of ResponseTime spent waiting
	// on the air).
	AccessTime stats.Sample
	// TuningFrames aggregates per-transaction frames listened to (the
	// paper's tuning time, the battery cost). Tracked only when an
	// airsched program drives the broadcast (Config.Disks > 0): 3 frames
	// per read on an indexed program, every frame passing by while
	// waiting on an unindexed one.
	TuningFrames stats.Sample
	// DozedFrames counts frames the selective tuner slept through in
	// total (airsched programs with IndexM > 0 only).
	DozedFrames int64

	// CyclesSimulated counts broadcast cycles begun.
	CyclesSimulated int64
	// ServerCommits counts update transactions committed at the server.
	ServerCommits int64
	// SimulatedTime is the final clock value in bit-units.
	SimulatedTime float64
	// CacheHits counts client reads served from the local cache.
	CacheHits int64

	// PerClient holds each client's own metrics in multi-client runs
	// (Config.Clients > 1); nil otherwise.
	PerClient []ClientStats

	// UpdateResponseTime aggregates response times of client *update*
	// transactions (ClientUpdateProb > 0), measured separately from the
	// read-only ResponseTime.
	UpdateResponseTime stats.Sample
	// UpdateRestarts aggregates restart counts of client update
	// transactions.
	UpdateRestarts stats.Sample
	// ClientCommits counts update transactions committed via the uplink.
	ClientCommits int64
	// UplinkRejects counts update transactions the server's validation
	// rejected (each causes a restart).
	UplinkRejects int64

	// AuditLog is the server's committed-update log (Config.Audit only).
	AuditLog []cmatrix.Commit
	// CommittedReadSets holds every committed client transaction's
	// read-set (Config.Audit only).
	CommittedReadSets [][]protocol.ReadAt

	// Obs is the run's final metrics-registry snapshot. The counter
	// fields above (ServerCommits, ClientCommits, UplinkRejects,
	// CacheHits) are views over it, using the same metric names as the
	// live server and client, so a CLI run and a bench run can never
	// disagree about what a counter means.
	Obs obs.Snapshot
	// Trace is the run's cycle-clock event trace (most recent
	// traceCapacity events). Every event is stamped with (cycle, frame)
	// — logical broadcast time — and the engines are single-goroutine,
	// so the trace is a pure function of Config: byte-identical at any
	// sweep parallelism and under the race detector.
	Trace []obs.Event
}

// ClientStats are one client's measured metrics in a multi-client run.
type ClientStats struct {
	ResponseTime       stats.Sample
	Restarts           stats.Sample
	UpdateResponseTime stats.Sample
}

// traceCapacity bounds the per-run event ring. Overflow drops the
// oldest events deterministically, so a truncated trace is still
// reproducible.
const traceCapacity = 8192

// ErrMaxTime reports that the simulated clock passed Config.MaxTime —
// the configuration is pathological for the protocol under test (the
// paper's "outside the limits of the Y-axis" Datacycle runs).
var ErrMaxTime = errors.New("sim: simulated time exceeded MaxTime")

// Run executes one simulation to completion.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Clients > 1 {
		return e.runWheel()
	}
	return e.run()
}

// engine is the discrete-event core. The server's commit stream is a
// deterministic function of time generated lazily in time order; the
// single client (the paper simulates one client — protocol behaviour is
// client-count independent) drives the clock forward through its reads,
// pulling the server state and per-cycle control snapshots along.
type engine struct {
	cfg    Config
	layout bcast.Layout
	// rng drives the server workload and, in the single-client engine,
	// the client too; multi-client engines give every client a stream
	// of its own, so client count does not perturb the server workload.
	rng *rand.Rand

	now       float64
	cycleBits float64
	schedule  *bcast.Schedule
	// program/timeline drive multi-disk, (1,m)-indexed broadcasts
	// (cfg.Disks > 0); nil keeps the flat schedule path bit-identical to
	// the paper's study.
	program  *airsched.Program
	timeline *airsched.Timeline
	zipf     *airsched.ZipfPicker

	// Per-transaction tuning/access accumulators (reset by run).
	curAccess   float64
	curListened int64
	dozed       int64
	// faults, when non-nil, decides which whole cycles each client's
	// tuner misses (FaultLoss/FaultDoze). Decisions are pure functions of
	// (FaultSeed, client, cycle), so the trace is identical at any
	// parallelism.
	faults *faultair.Schedule

	// Server state: the control representation the live server would
	// maintain for cfg.Algorithm (see server.New).
	control        cmatrix.Control
	lastWrite      []cmatrix.Cycle // per-object last committed-write cycle
	nextCommitTime float64

	// Observability: the registry is the single store for the run's
	// counters (Result's counter fields are filled from it), the tracer
	// records cycle-clock events. Counter pointers are resolved once so
	// the simulation loop pays one atomic add per count.
	obsReg         *obs.Registry
	trace          *obs.Tracer
	cServerCommits *obs.Counter
	cClientCommits *obs.Counter
	cUplinkRejects *obs.Counter
	cCacheHits     *obs.Counter
	cCycles        *obs.Counter
	cReads         *obs.Counter
	cReadAborts    *obs.Counter
	cRestarts      *obs.Counter
	hRestartsTxn   *obs.Histogram
	cycleCommits   int64 // commits folded in since the last snapshot

	// Per-cycle control snapshots, pruned as the clock advances.
	snaps          map[cmatrix.Cycle]protocol.Snapshot
	snappedThrough cmatrix.Cycle

	// Client cache (Section 3.3), enabled by cfg.CacheCurrency > 0. The
	// simulator models no values: entries carry the caching cycle and the
	// control column only.
	cache *qcache.Cache

	// Audit trail (cfg.Audit only).
	auditLog      []cmatrix.Commit
	auditReadSets [][]protocol.ReadAt
}

func newEngine(cfg Config) (*engine, error) {
	layout := bcast.LayoutFor(cfg.Algorithm, cfg.Objects, cfg.ObjectBits, cfg.TimestampBits, cfg.Groups)
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	var schedule *bcast.Schedule
	var program *airsched.Program
	var timeline *airsched.Timeline
	var err error
	if cfg.Disks > 0 {
		program, err = airsched.Build(layout, airsched.ZipfWeights(cfg.Objects, cfg.ZipfTheta), cfg.Disks, cfg.IndexM)
		if err != nil {
			return nil, err
		}
		timeline = airsched.NewTimeline(program)
		schedule = program.Schedule()
	} else if cfg.HotDiskSpeed > 1 {
		hot := make([]int, cfg.HotSetSize)
		for i := range hot {
			hot[i] = i
		}
		cold := make([]int, cfg.Objects-cfg.HotSetSize)
		for i := range cold {
			cold[i] = cfg.HotSetSize + i
		}
		schedule, err = bcast.NewSchedule(layout, []bcast.Disk{
			{Objects: hot, Speed: cfg.HotDiskSpeed},
			{Objects: cold, Speed: 1},
		})
	} else {
		schedule, err = bcast.SingleDiskSchedule(layout)
	}
	if err != nil {
		return nil, err
	}
	cycleBits := float64(schedule.MajorCycleBits())
	if timeline != nil {
		// Index segments consume airtime too: the program's major cycle
		// is longer than the data slots alone.
		cycleBits = float64(timeline.MajorBits())
	}
	e := &engine{
		cfg:            cfg,
		layout:         layout,
		schedule:       schedule,
		program:        program,
		timeline:       timeline,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		cycleBits:      cycleBits,
		lastWrite:      make([]cmatrix.Cycle, cfg.Objects),
		nextCommitTime: cfg.ServerTxnInterval,
		snaps:          map[cmatrix.Cycle]protocol.Snapshot{},
	}
	e.obsReg = obs.NewRegistry()
	e.trace = obs.NewTracer(traceCapacity)
	e.cServerCommits = e.obsReg.Counter("server_commits")
	e.cClientCommits = e.obsReg.Counter("client_commits")
	e.cUplinkRejects = e.obsReg.Counter("server_conflict_aborts")
	e.cCacheHits = e.obsReg.Counter("client_cache_hits")
	e.cCycles = e.obsReg.Counter("server_cycles")
	e.cReads = e.obsReg.Counter("client_reads")
	e.cReadAborts = e.obsReg.Counter("client_read_aborts")
	e.cRestarts = e.obsReg.Counter("client_restarts")
	e.hRestartsTxn = e.obsReg.Histogram("client_restarts_per_txn", obs.LinearBuckets(0, 1, 8))
	if cfg.ZipfTheta > 0 {
		e.zipf = airsched.NewZipfPicker(cfg.Objects, cfg.ZipfTheta)
	}
	if cfg.FaultLoss > 0 || cfg.FaultDoze > 0 {
		e.faults = faultair.NewSchedule(faultair.Profile{
			Loss:    cfg.FaultLoss,
			Doze:    cfg.FaultDoze,
			DozeLen: cfg.FaultDozeLen,
			Seed:    cfg.FaultSeed,
		})
	}
	if cfg.ServerIntervalExponential {
		e.nextCommitTime = e.exp(cfg.ServerTxnInterval)
	}
	switch layout.Control {
	case bcast.ControlGrouped:
		e.control = cmatrix.NewGroupedControl(cmatrix.UniformPartition(cfg.Objects, cfg.Groups))
	case bcast.ControlVector:
		e.control = cmatrix.NewVectorControl(cfg.Objects)
	default: // ControlMatrix and ControlNone both keep the full matrix
		e.control = cmatrix.NewDenseControl(cfg.Objects)
	}
	if cfg.CacheCurrency > 0 {
		e.cache = new(qcache.Cache)
		e.cache.Init(cfg.CacheSize, func(int) cmatrix.Cycle { return cmatrix.Cycle(cfg.CacheCurrency) }, nil, nil)
	}
	return e, nil
}

// exp draws an exponential variate with the given mean (0 stays 0)
// from the engine's stream.
func (e *engine) exp(mean float64) float64 {
	if mean == 0 {
		return 0
	}
	return e.rng.ExpFloat64() * mean
}

// cycleOf reports the cycle containing time t (cycle 1 starts at 0).
func (e *engine) cycleOf(t float64) cmatrix.Cycle {
	return cmatrix.Cycle(math.Floor(t/e.cycleBits)) + 1
}

// nextReady reports the earliest instant >= t at which object j,
// together with its control information, has been fully broadcast, and
// the (major) cycle that broadcast belongs to.
func (e *engine) nextReady(t float64, j int) (float64, cmatrix.Cycle) {
	if e.timeline != nil {
		ready, cycle := e.timeline.NextReady(t, j)
		return ready, cmatrix.Cycle(cycle)
	}
	ready, cycle := e.schedule.NextReady(t, j)
	return ready, cmatrix.Cycle(cycle)
}

// applyNextCommit generates the next server update transaction and
// commits it, stamping it with the cycle its completion time falls in.
// Server transactions execute serially (the paper's commit-order
// serialization), so conflict serializability of H_update holds by
// construction.
func (e *engine) applyNextCommit() {
	commitCycle := e.cycleOf(e.nextCommitTime)
	var readSet, writeSet []int
	seenR := map[int]bool{}
	seenW := map[int]bool{}
	for op := 0; op < e.cfg.ServerTxnLength; op++ {
		obj := e.rng.Intn(e.cfg.Objects)
		if e.rng.Float64() < e.cfg.ServerReadProb {
			if !seenR[obj] {
				seenR[obj] = true
				readSet = append(readSet, obj)
			}
		} else if !seenW[obj] {
			seenW[obj] = true
			writeSet = append(writeSet, obj)
		}
	}
	e.install(readSet, writeSet, commitCycle)
	e.cServerCommits.Inc()
	if e.cfg.ServerIntervalExponential {
		e.nextCommitTime += e.exp(e.cfg.ServerTxnInterval)
	} else {
		e.nextCommitTime += e.cfg.ServerTxnInterval
	}
}

// install is the one place a transaction (server- or client-
// originated) becomes committed: it folds it into the control state and
// the audit trail. The wheel reuses its write-set buffer, so the audit
// entry takes a copy.
func (e *engine) install(readSet, writeSet []int, commitCycle cmatrix.Cycle) {
	e.control.Apply(readSet, writeSet, commitCycle)
	for _, obj := range writeSet {
		e.lastWrite[obj] = commitCycle
	}
	e.cycleCommits++
	if e.cfg.Audit {
		e.auditLog = append(e.auditLog, cmatrix.Commit{
			ReadSet: readSet, WriteSet: append([]int(nil), writeSet...), Cycle: commitCycle,
		})
	}
}

// advanceCommitsTo applies every pending server commit with completion
// time strictly before t, taking any crossed cycle-boundary snapshots
// first so snapshots never leak later commits.
func (e *engine) advanceCommitsTo(t float64) {
	e.ensureSnapshot(e.cycleOf(t))
	for e.nextCommitTime < t {
		e.applyNextCommit()
	}
}

// ensureSnapshot advances the server through time so that the control
// snapshot at the beginning of cycle c exists: all commits of earlier
// cycles applied, none of cycle c or later.
func (e *engine) ensureSnapshot(c cmatrix.Cycle) {
	for e.snappedThrough < c {
		next := e.snappedThrough + 1
		start := float64(next-1) * e.cycleBits
		for e.nextCommitTime < start {
			e.applyNextCommit()
		}
		e.cCycles.Inc()
		e.trace.Emit(obs.EvCycleStart, obs.ActorServer, int64(next), 0, e.cycleCommits)
		e.cycleCommits = 0
		// Dense snapshots are copy-on-write: they share unchanged columns
		// with the live matrix (O(n) per cycle) and later Applies replace
		// the columns they write instead of mutating them.
		e.snaps[next] = e.control.Snapshot()
		e.trace.Emit(obs.EvSnapshotPublish, obs.ActorServer, int64(next), 0, 0)
		e.snappedThrough = next
		delete(e.snaps, next-8) // keep a short window of recent cycles
	}
}

// run executes the client workload to completion.
func (e *engine) run() (*Result, error) {
	cfg := e.cfg
	res := &Result{Config: cfg, Layout: e.layout}

	validator := e.newValidator()
	for txn := 0; txn < cfg.ClientTxns; txn++ {
		// Distinct objects, fixed across restarts: the same transaction
		// program re-executes after an abort.
		objs := e.pickObjectsFrom(e.rng)
		isUpdate := cfg.ClientUpdateProb > 0 && e.rng.Float64() < cfg.ClientUpdateProb
		writes := 0
		if isUpdate {
			writes = cfg.ClientTxnWrites
			if writes == 0 {
				writes = 1
			}
			if writes > len(objs) {
				writes = len(objs)
			}
		}
		submit := e.now
		restarts := 0
		e.curAccess, e.curListened = 0, 0
		for { // attempts
			validator.Reset()
			aborted := false
			for _, j := range objs {
				e.now += e.exp(cfg.MeanInterOpDelay)
				if ok, err := e.performRead(validator, j); err != nil {
					return nil, err
				} else if !ok {
					aborted = true
					break
				}
			}
			if !aborted && isUpdate {
				// Commit over the uplink: the round trip costs latency,
				// and the server validates the read-set against what has
				// committed meanwhile.
				e.now += cfg.UplinkLatency
				if !e.submitClientUpdate(validator.ReadSet(), objs[:writes]) {
					aborted = true
				}
			}
			if !aborted {
				break
			}
			restarts++
			e.cRestarts.Inc()
			// Drop the transaction's objects from the cache: an aborted
			// attempt must not be replayed against the same stale
			// entries, or a long currency bound could starve it.
			if e.cache != nil {
				for _, j := range objs {
					e.cache.Remove(j)
				}
			}
			e.now += cfg.RestartDelay
			if cfg.MaxTime > 0 && e.now > cfg.MaxTime {
				return nil, fmt.Errorf("%w: MaxTime=%g during transaction %d (restart %d)", ErrMaxTime, cfg.MaxTime, txn, restarts)
			}
		}
		e.hRestartsTxn.Observe(int64(restarts))
		if txn >= cfg.MeasureFrom {
			if isUpdate {
				res.UpdateResponseTime.Add(e.now - submit)
				res.UpdateRestarts.Add(float64(restarts))
			} else {
				res.ResponseTime.Add(e.now - submit)
				res.Restarts.Add(float64(restarts))
			}
			res.AccessTime.Add(e.curAccess)
			if e.timeline != nil {
				res.TuningFrames.Add(float64(e.curListened))
			}
		}
		if cfg.Audit && !isUpdate {
			// Update transactions are already in the commit log; only
			// read-only read-sets need recording for the history audit.
			e.auditReadSets = append(e.auditReadSets, validator.ReadSet())
		}
		e.now += e.exp(cfg.MeanInterTxnDelay)
	}

	e.finalizeResult(res)
	return res, nil
}

// pickObjectsFrom draws a transaction's distinct object set, skewed to
// the hot set when HotAccessProb is set.
func (e *engine) pickObjectsFrom(rng *rand.Rand) []int {
	cfg := e.cfg
	if e.zipf != nil {
		seen := make(map[int]bool, cfg.ClientTxnLength)
		out := make([]int, 0, cfg.ClientTxnLength)
		for len(out) < cfg.ClientTxnLength {
			j := e.zipf.Pick(rng.Float64())
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
		return out
	}
	if cfg.HotAccessProb == 0 {
		return rng.Perm(cfg.Objects)[:cfg.ClientTxnLength]
	}
	coldSize := cfg.Objects - cfg.HotSetSize
	seen := make(map[int]bool, cfg.ClientTxnLength)
	out := make([]int, 0, cfg.ClientTxnLength)
	for len(out) < cfg.ClientTxnLength {
		var j int
		if coldSize == 0 || rng.Float64() < cfg.HotAccessProb {
			j = rng.Intn(cfg.HotSetSize)
		} else {
			j = cfg.HotSetSize + rng.Intn(coldSize)
		}
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// submitClientUpdate performs the server-side validation and commit of
// a client update transaction at the current clock: every read must
// still be current (no committed write to the object during or after
// the cycle it was read in), exactly the live server's rule. On success
// the transaction is installed at the current cycle.
func (e *engine) submitClientUpdate(reads []protocol.ReadAt, writeSet []int) bool {
	e.advanceCommitsTo(e.now)
	for _, r := range reads {
		if e.lastWrite[r.Obj] >= r.Cycle {
			e.cUplinkRejects.Inc()
			e.trace.Emit(obs.EvUplinkVerdict, obs.ActorServer, int64(e.cycleOf(e.now)), 0, 0)
			return false
		}
	}
	readSet := make([]int, 0, len(reads))
	for _, r := range reads {
		readSet = append(readSet, r.Obj)
	}
	commitCycle := e.cycleOf(e.now)
	e.install(readSet, writeSet, commitCycle)
	e.cClientCommits.Inc()
	e.trace.Emit(obs.EvUplinkVerdict, obs.ActorServer, int64(commitCycle), 0, 1)
	return true
}

// airRead waits out the broadcast program for object j from the current
// clock, modelling the tuner: with a (1,m) index the client listens to a
// probe frame, the next index segment, and the object's frame (dozing
// in between); without an index it listens to every frame until the
// object arrives. A fault-dropped cycle costs the listening but carries
// no data, so the attempt repeats from the next cycle.
func (e *engine) airRead(j int) (float64, cmatrix.Cycle, error) {
	at := e.now
	for {
		var ready float64
		var cycle int64
		if e.cfg.IndexM > 0 {
			listened := int64(1)
			probeEnd := e.timeline.NextFrameEnd(at)
			direct, directCycle := e.timeline.NextReady(at, j)
			if direct == probeEnd {
				// The probe frame happened to be the object itself.
				ready, cycle = direct, directCycle
			} else {
				idxEnd, ok := e.timeline.NextIndexEnd(at)
				if !ok {
					return 0, 0, fmt.Errorf("sim: internal error: indexed program has no index segments")
				}
				if idxEnd != probeEnd {
					listened++ // a separate probe, then the index segment
				}
				ready, cycle = e.timeline.NextReady(idxEnd, j)
				listened++ // the object's data frame
			}
			e.curListened += listened
			e.dozed += e.timeline.FramesIn(at, ready) - listened
		} else {
			// No index: the tuner cannot doze, it decodes every frame
			// until the object comes around.
			ready, cycle = e.timeline.NextReady(at, j)
			e.curListened += e.timeline.FramesIn(at, ready)
		}
		if e.faults == nil || !e.faults.Missed(0, cmatrix.Cycle(cycle)) {
			return ready, cmatrix.Cycle(cycle), nil
		}
		at = float64(cycle) * e.cycleBits
		if e.cfg.MaxTime > 0 && at > e.cfg.MaxTime {
			return 0, 0, fmt.Errorf("%w: MaxTime=%g waiting out faults for object %d", ErrMaxTime, e.cfg.MaxTime, j)
		}
	}
}

// newValidator builds the per-transaction validator: the exact paper
// validators normally, the snapshot-retaining validator when the cache
// may serve (older) reads.
func (e *engine) newValidator() protocol.Validator {
	if e.cache != nil {
		return &protocol.SnapshotValidator{}
	}
	return protocol.NewValidator(e.cfg.Algorithm)
}

// performRead executes one client read of object j at the current clock:
// from the cache when fresh (no wait), otherwise waiting for the object
// to come around on the broadcast. It reports whether the read passed
// validation.
func (e *engine) performRead(v protocol.Validator, j int) (bool, error) {
	if e.cache != nil {
		// A stale entry is invalidated locally, no communication.
		if _, cycle, snap, ok := e.cache.Get(j, e.cycleOf(e.now)); ok {
			e.cCacheHits.Inc()
			ok := v.TryRead(snap, j, cycle)
			// Cache hits are stamped frame -1: the value never crossed the
			// air during this transaction.
			e.recordRead(0, cycle, -1, j, ok)
			return ok, nil
		}
	}
	var readTime float64
	var cycle cmatrix.Cycle
	if e.timeline != nil {
		var err error
		readTime, cycle, err = e.airRead(j)
		if err != nil {
			return false, err
		}
	} else {
		readTime, cycle = e.nextReady(e.now, j)
		// A missed cycle (doze or frame loss) carries no data for this
		// client: the read retries from the start of the next cycle until the
		// object comes around in a cycle the tuner actually receives.
		for e.faults != nil && e.faults.Missed(0, cycle) {
			e.trace.Emit(obs.EvDoze, 0, int64(cycle), 0, 1)
			readTime, cycle = e.nextReady(float64(cycle)*e.cycleBits, j)
			if e.cfg.MaxTime > 0 && readTime > e.cfg.MaxTime {
				return false, fmt.Errorf("%w: MaxTime=%g waiting out faults for object %d", ErrMaxTime, e.cfg.MaxTime, j)
			}
		}
	}
	if e.cfg.MaxTime > 0 && readTime > e.cfg.MaxTime {
		return false, fmt.Errorf("%w: MaxTime=%g waiting for object %d", ErrMaxTime, e.cfg.MaxTime, j)
	}
	e.curAccess += readTime - e.now
	e.now = readTime
	e.ensureSnapshot(cycle)
	snap := e.snaps[cycle]
	if snap == nil {
		return false, fmt.Errorf("sim: internal error: no snapshot for cycle %d", cycle)
	}
	if e.cache != nil {
		snap = protocol.ColumnOf(snap, j, e.cfg.Objects)
	}
	ok := v.TryRead(snap, j, cycle)
	e.recordRead(0, cycle, 0, j, ok)
	if ok && e.cache != nil {
		e.cache.Put(j, nil, cycle, snap)
	}
	return ok, nil
}

// recordRead counts and traces one read validation outcome for the
// given client (actor 0 in the single-client engine).
func (e *engine) recordRead(actor int32, cycle cmatrix.Cycle, frame int32, obj int, ok bool) {
	if ok {
		e.cReads.Inc()
		e.trace.Emit(obs.EvReadValidate, actor, int64(cycle), frame, int64(obj))
	} else {
		e.cReadAborts.Inc()
		e.trace.Emit(obs.EvReadAbort, actor, int64(cycle), frame, int64(obj))
	}
}

// finalizeResult fills the aggregate fields every engine shares.
func (e *engine) finalizeResult(res *Result) {
	res.CyclesSimulated = int64(e.snappedThrough)
	res.DozedFrames = e.dozed
	res.SimulatedTime = e.now
	res.AuditLog = e.auditLog
	res.CommittedReadSets = e.auditReadSets
	// Counter fields are views over the registry — the same numbers a
	// live run would expose on /metrics under the same names.
	res.ServerCommits = e.cServerCommits.Load()
	res.CacheHits = e.cCacheHits.Load()
	res.ClientCommits = e.cClientCommits.Load()
	res.UplinkRejects = e.cUplinkRejects.Load()
	e.obsReg.Gauge("sim_dozed_frames").Set(e.dozed)
	res.Obs = e.obsReg.Snapshot()
	res.Trace = e.trace.Events()
	if res.ResponseTime.N() >= 2 {
		if ci, err := res.ResponseTime.ConfidenceInterval(0.95); err == nil {
			res.ResponseCI = ci
		}
	}
	if n := res.Restarts.N(); n > 0 {
		res.RestartRatio = res.Restarts.Sum() / float64(n)
	}
}
