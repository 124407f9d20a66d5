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
	"broadcastcc/internal/server"
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
	// paper's tuning time, the battery cost). Tracked only when
	// Config.Disks > 0: 3 frames per read on an indexed program, every
	// frame passing by while waiting on an unindexed one.
	TuningFrames stats.Sample
	// DozedFrames counts frames the selective tuner slept through in
	// total (airsched programs with IndexM > 0 only).
	DozedFrames int64

	// CyclesSimulated counts broadcast cycles begun.
	CyclesSimulated int64
	// ServerCommits counts update transactions committed at the server.
	ServerCommits int64
	// SimulatedTime is the instant, in bit-units, at which the last
	// transaction completed — at every client count.
	SimulatedTime float64
	// CacheHits counts client reads served from the local cache.
	CacheHits int64

	// PerClient holds each client's own metrics; the single client's one
	// entry equals the pooled samples.
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

	// AuditLog is the server's committed-update log (Config.Audit only):
	// server.AuditLog, which has no entry for a transaction that wrote
	// nothing.
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
	// — logical broadcast time — and the engine is single-goroutine, so
	// the trace is a pure function of Config: byte-identical at any sweep
	// parallelism and under the race detector.
	Trace []obs.Event
}

// ClientStats are one client's measured metrics.
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
	return e.runWheel()
}

// engine is the discrete-event core's shared half: the broadcast
// program, the server and the run's observability. The server's commit
// stream is a deterministic function of time generated lazily in time
// order; the clients on the event wheel (wheel.go) drive the clock
// forward through their reads, pulling the server's commits and cycle
// publications along.
type engine struct {
	cfg Config
	// rng drives the server workload. The paper's single client
	// (Clients <= 1) draws from it too, which is what keeps every
	// published single-client figure byte-identical; with more clients
	// each has a stream of its own, so client count does not perturb the
	// server workload.
	rng *rand.Rand

	now       float64
	cycleBits float64
	// timeline is the broadcast program every read waits out (airRead):
	// the paper's flat disk at Disks <= 1 and IndexM = 0, a multi-disk,
	// (1,m)-indexed program otherwise.
	timeline *airsched.Timeline
	zipf     *airsched.ZipfPicker

	dozed int64 // frames the selective tuner slept through, whole run
	// faults, when non-nil, decides which whole cycles each client's
	// tuner misses (FaultLoss/FaultDoze). Decisions are pure functions of
	// (FaultSeed, client, cycle), so the trace is identical at any
	// parallelism.
	faults *faultair.Schedule

	// srv is the run's server: every commit, uplink verdict and cycle
	// publication goes through it. It keeps a private registry and no
	// tracer; the counters and trace events below are the run's record.
	srv            *server.Server
	nextCommitTime float64
	reads, writes  []int                  // one server transaction's operations
	req            protocol.UpdateRequest // one client update

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
	cycleCommits   int64 // transactions committed since the last snapshot

	// Per-cycle control snapshots, pruned as the clock advances.
	snaps          map[cmatrix.Cycle]protocol.Snapshot
	snappedThrough cmatrix.Cycle

	// Client cache (Section 3.3), enabled by cfg.CacheCurrency > 0
	// (single client only). The simulator models no values: entries carry
	// the caching cycle and the control column only.
	cache *qcache.Cache

	// Committed client read-sets (cfg.Audit only).
	auditReadSets [][]protocol.ReadAt
}

func newEngine(cfg Config) (*engine, error) {
	srv, err := server.New(server.Config{Objects: cfg.Objects, ObjectBits: cfg.ObjectBits,
		TimestampBits: cfg.TimestampBits, Algorithm: cfg.Algorithm, Groups: cfg.Groups, Audit: cfg.Audit})
	if err != nil {
		return nil, err
	}
	// Every run waits out one airsched program; Disks <= 1 without an
	// index is the paper's flat disk. Index segments consume airtime
	// too, so the major cycle is the timeline's, not the data slots'.
	program, err := airsched.Build(srv.Layout(), airsched.ZipfWeights(cfg.Objects, cfg.ZipfTheta), max(cfg.Disks, 1), cfg.IndexM)
	if err != nil {
		return nil, err
	}
	timeline := airsched.NewTimeline(program)
	e := &engine{
		cfg:            cfg,
		timeline:       timeline,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		cycleBits:      float64(timeline.MajorBits()),
		srv:            srv,
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

// applyNextCommit generates the next server update transaction and
// commits it on the server, in the cycle its completion time falls in:
// the one on the air, since ensureSnapshot publishes a cycle only after
// every commit that precedes it. Its reads go first, then its writes,
// so the read and write sets are the distinct objects of each in
// drawing order (a Txn records no read of an object it has written).
// Server transactions execute serially (the paper's commit-order
// serialization), so conflict serializability of H_update holds by
// construction and only a bug can make the server refuse one.
func (e *engine) applyNextCommit() {
	e.reads, e.writes = e.reads[:0], e.writes[:0]
	for op := 0; op < e.cfg.ServerTxnLength; op++ {
		obj := e.rng.Intn(e.cfg.Objects)
		if e.rng.Float64() < e.cfg.ServerReadProb {
			e.reads = append(e.reads, obj)
		} else {
			e.writes = append(e.writes, obj)
		}
	}
	txn := e.srv.Begin()
	for _, obj := range e.reads {
		_, _ = txn.Read(obj) // in range on an open server: cannot fail
	}
	for _, obj := range e.writes {
		_ = txn.Write(obj, nil) // in range, and nil fits any slot
	}
	if err := txn.Commit(); err != nil {
		panic("sim: internal error: server transaction: " + err.Error())
	}
	e.cycleCommits++
	e.cServerCommits.Inc()
	if e.cfg.ServerIntervalExponential {
		e.nextCommitTime += e.exp(e.cfg.ServerTxnInterval)
	} else {
		e.nextCommitTime += e.cfg.ServerTxnInterval
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
		e.snaps[next] = e.srv.StartCycle().Snapshot()
		e.trace.Emit(obs.EvSnapshotPublish, obs.ActorServer, int64(next), 0, 0)
		e.snappedThrough = next
		delete(e.snaps, next-8) // keep a short window of recent cycles
	}
}

// pickObjectsFrom draws a transaction's distinct object set, uniform
// or Zipf-skewed.
func (e *engine) pickObjectsFrom(rng *rand.Rand) []int {
	cfg := e.cfg
	if e.zipf == nil {
		return rng.Perm(cfg.Objects)[:cfg.ClientTxnLength]
	}
	seen := make(map[int]bool, cfg.ClientTxnLength)
	out := make([]int, 0, cfg.ClientTxnLength)
	for len(out) < cfg.ClientTxnLength {
		if j := e.zipf.Pick(rng.Float64()); !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// submitClientUpdate ships a client update transaction — every read
// with the cycle it was made in, and the objects it writes — to the
// server at the current clock, and reports whether the server committed
// it.
func (e *engine) submitClientUpdate(reads []protocol.ReadAt, writeSet []int32) (bool, error) {
	// Every server commit completed strictly before now comes first,
	// after any crossed cycle-boundary snapshots so those never leak
	// later commits.
	e.ensureSnapshot(e.cycleOf(e.now))
	for e.nextCommitTime < e.now {
		e.applyNextCommit()
	}
	e.req.Reads, e.req.Writes = reads, e.req.Writes[:0]
	for _, obj := range writeSet {
		e.req.Writes = append(e.req.Writes, protocol.ObjectWrite{Obj: int(obj)})
	}
	err := e.srv.SubmitUpdate(e.req)
	switch {
	case errors.Is(err, server.ErrConflict):
		e.cUplinkRejects.Inc()
		e.trace.Emit(obs.EvUplinkVerdict, obs.ActorServer, int64(e.snappedThrough), 0, 0)
		return false, nil
	case err != nil:
		return false, fmt.Errorf("sim: internal error: uplink commit: %w", err)
	}
	e.cycleCommits++
	e.cClientCommits.Inc()
	e.trace.Emit(obs.EvUplinkVerdict, obs.ActorServer, int64(e.snappedThrough), 0, 1)
	return true, nil
}

// recordRead counts and traces one read validation outcome for the
// given client.
func (e *engine) recordRead(actor int32, cycle cmatrix.Cycle, frame int32, obj int, ok bool) {
	if ok {
		e.cReads.Inc()
		e.trace.Emit(obs.EvReadValidate, actor, int64(cycle), frame, int64(obj))
	} else {
		e.cReadAborts.Inc()
		e.trace.Emit(obs.EvReadAbort, actor, int64(cycle), frame, int64(obj))
	}
}

// finalizeResult fills the aggregate fields.
func (e *engine) finalizeResult(res *Result) {
	res.CyclesSimulated = int64(e.snappedThrough)
	res.DozedFrames = e.dozed
	res.SimulatedTime = e.now
	if e.cfg.Audit {
		res.AuditLog = e.srv.AuditLog()
	}
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
