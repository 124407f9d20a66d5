// Package server implements the broadcast disk server (Section 3.2.1):
// it maintains the database and the control information, ensures the
// conflict serializability of every update transaction submitted to it
// — whether executed locally or shipped up from clients as read/write
// sets — and publishes, at the beginning of every broadcast cycle, the
// latest committed values together with the control matrix (F-Matrix),
// vector (R-Matrix / Datacycle) or grouped matrix the configured
// protocol requires.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

// Errors returned by transaction processing.
var (
	// ErrConflict rejects a commit whose reads have been overwritten by
	// a later committed transaction (optimistic backward validation).
	ErrConflict = errors.New("server: transaction conflicts with a committed update")
	// ErrClosed rejects operations on a closed server.
	ErrClosed = errors.New("server: closed")
	// ErrTxnFinished rejects operations on a committed or aborted
	// transaction handle.
	ErrTxnFinished = errors.New("server: transaction already finished")
)

// heatAlpha is the EWMA smoothing factor of the regrouping heat
// estimator (Config.RegroupEvery).
const heatAlpha = 0.1

// Config parameterizes a server.
type Config struct {
	// Objects is the database size n.
	Objects int
	// ObjectBits is the broadcast size of each object in bits (timing
	// and overhead accounting only; stored values are arbitrary bytes).
	ObjectBits int64
	// TimestampBits is the control timestamp width TS.
	TimestampBits int
	// Algorithm selects the control information broadcast each cycle.
	Algorithm protocol.Algorithm
	// Groups is the partition size for protocol.Grouped.
	Groups int
	// StaleGroupedMC induces a known defect under protocol.Grouped: the
	// grouped control keeps each MC column as the naive running max
	// (cmatrix.GroupedControl.StaleMC). The published MC is then a stale
	// upper bound, which VerifyControl reports. Only the conformance
	// harness sets it, to show that check catches the class.
	StaleGroupedMC bool
	// InitialValues optionally seeds the database; missing entries
	// default to nil.
	InitialValues [][]byte
	// Audit, when true, keeps the in-order log of committed update
	// transactions (read set, write set, commit cycle) so tests and
	// tools can reconstruct and check the induced history.
	Audit bool
	// Program, when non-nil, replaces the flat broadcast with an
	// airsched multi-disk program, which the transmitter (netcast) lays
	// out on the air: every occurrence of an object within the major
	// cycle carries the cycle-start value and control column StartCycle
	// publishes (so Theorem 1/2 validation of a mid-cycle re-broadcast is
	// identical to the first copy). The program's layout must equal
	// LayoutOf(cfg).
	Program *airsched.Program
	// RegroupEvery, when > 0 under protocol.Grouped, re-derives the
	// partition from the write-heat EWMA every RegroupEvery cycles (a
	// deterministic regroup epoch at the start of cycles 1+k·RegroupEvery):
	// hot objects get fine groups, cold objects coarse ones (see
	// cmatrix.HeatPartition). Regrouping produces non-uniform partitions,
	// which only the sparse BCG1 wire format can carry, so it is
	// incompatible with Program (program-mode buckets assume the uniform
	// partition).
	RegroupEvery int
	// Obs receives the server's metrics (server_cycles, server_commits,
	// server_conflict_aborts, server_uplink_requests,
	// server_control_cols_rewritten, server_commits_per_cycle,
	// server_regroup_churn, server_verify_ns).
	// Nil uses a private registry; Obs() returns it either way.
	Obs *obs.Registry
	// Trace, when non-nil, receives cycle-clock events (cycle start,
	// snapshot publish, uplink verdicts) stamped with the broadcast
	// cycle, never wall time.
	Trace *obs.Tracer
	// VerifySample, when > 0, runs VerifyControl every VerifySample-th
	// StartCycle and records its wall-clock cost in the
	// server_verify_ns histogram (requires Audit). Wall time stays in
	// the registry only — it never enters the cycle-clock trace, which
	// must remain deterministic.
	VerifySample int
}

// Server is the broadcast server. All methods are safe for concurrent
// use.
type Server struct {
	mu        sync.Mutex
	cfg       Config
	layout    bcast.Layout
	partition *cmatrix.Partition
	medium    *bcast.Medium

	// committed holds the latest committed value per object. A slice in
	// it is never written once installed: installLocked replaces it, as
	// Apply replaces a snapshotted matrix column, so StartCycle publishes
	// the slices themselves and every cycle that carries one keeps
	// reading the bytes it was published with
	// (TestStartCycleValuesImmutable).
	committed [][]byte
	version   []int64         // per-object commit sequence number
	lastCycle []cmatrix.Cycle // per-object cycle of last committed write (the exact V)
	// control is the representation the configured protocol maintains:
	// *cmatrix.DenseControl (F-Matrix, F-Matrix-No), *cmatrix.VectorControl
	// (R-Matrix, Datacycle), or *cmatrix.GroupedControl (Grouped).
	control cmatrix.Control
	heat    *airsched.EWMA // write-heat estimate driving regrouping (nil unless RegroupEvery > 0)
	seen    []bool         // shape's per-object dedupe scratch, all false between calls
	ids     []int          // shape's set scratch; unused under Audit, whose log keeps the sets

	cycle        cmatrix.Cycle // cycle currently on the air; 0 before the first broadcast
	regroupEpoch uint64        // bumped on every partition change
	closed       bool
	audit        []cmatrix.Commit
	// remoteApplies counts the conservative ApplyRemote commits of
	// cross-shard transactions (SubmitAcross); any > 0 voids the
	// Theorem 2 equality VerifyControl checks.
	remoteApplies int64
	// Incremental verification state (Audit only): rb tracks the
	// definition-based rebuild of the audited prefix; verifyAllGroups
	// forces the next grouped verification to recheck every MC column
	// (set at start and after regroups).
	rb              *cmatrix.LogRebuilder
	verifyAllGroups bool

	// Observability. Counters are resolved once at New so the commit
	// and cycle hot paths are single atomic adds; trace may be nil
	// (obs.Tracer.Emit is nil-safe).
	obs            *obs.Registry
	trace          *obs.Tracer
	cCycles        *obs.Counter
	cCommits       *obs.Counter
	cAborts        *obs.Counter
	cUplink        *obs.Counter
	cColsRewritten *obs.Counter
	cRegroupChurn  *obs.Counter
	hCommitsCycle  *obs.Histogram
	hVerifyNs      *obs.Histogram
	cVerifyFail    *obs.Counter
	cycleCommits   int64 // commits since the last StartCycle
}

// LayoutOf is the broadcast layout of a server configured by cfg;
// TimestampBits 0 selects 8.
func LayoutOf(cfg Config) bcast.Layout {
	ts := cfg.TimestampBits
	if ts == 0 {
		ts = 8
	}
	return bcast.LayoutFor(cfg.Algorithm, cfg.Objects, cfg.ObjectBits, ts, cfg.Groups)
}

// New builds a server. The configuration must describe a valid broadcast
// layout.
func New(cfg Config) (*Server, error) {
	layout := LayoutOf(cfg)
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Program != nil && cfg.Program.Layout() != layout {
		return nil, fmt.Errorf("server: program layout %+v does not match server layout %+v", cfg.Program.Layout(), layout)
	}
	if cfg.RegroupEvery > 0 {
		if cfg.Algorithm != protocol.Grouped {
			return nil, fmt.Errorf("server: RegroupEvery requires the grouped protocol, got %v", cfg.Algorithm)
		}
		if cfg.Program != nil {
			return nil, errors.New("server: RegroupEvery is incompatible with Program (buckets assume the uniform partition)")
		}
	}
	s := &Server{
		cfg:             cfg,
		layout:          layout,
		medium:          bcast.NewMedium(),
		committed:       make([][]byte, cfg.Objects),
		version:         make([]int64, cfg.Objects),
		lastCycle:       make([]cmatrix.Cycle, cfg.Objects),
		seen:            make([]bool, cfg.Objects),
		verifyAllGroups: true,
	}
	switch layout.Control {
	case bcast.ControlGrouped:
		s.partition = cmatrix.UniformPartition(cfg.Objects, cfg.Groups)
		gc := cmatrix.NewGroupedControl(s.partition)
		gc.StaleMC = cfg.StaleGroupedMC
		s.control = gc
		if cfg.RegroupEvery > 0 {
			heat, err := airsched.NewEWMA(cfg.Objects, heatAlpha)
			if err != nil {
				return nil, err
			}
			s.heat = heat
		}
	case bcast.ControlVector:
		s.control = cmatrix.NewVectorControl(cfg.Objects)
	default: // ControlMatrix and ControlNone both serve the full matrix
		s.control = cmatrix.NewDenseControl(cfg.Objects)
	}
	s.obs = cfg.Obs
	if s.obs == nil {
		s.obs = obs.NewRegistry()
	}
	s.trace = cfg.Trace
	s.cCycles = s.obs.Counter("server_cycles")
	s.cCommits = s.obs.Counter("server_commits")
	s.cAborts = s.obs.Counter("server_conflict_aborts")
	s.cUplink = s.obs.Counter("server_uplink_requests")
	s.cColsRewritten = s.obs.Counter("server_control_cols_rewritten")
	s.cRegroupChurn = s.obs.Counter("server_regroup_churn")
	s.cVerifyFail = s.obs.Counter("server_verify_failures")
	s.hCommitsCycle = s.obs.Histogram("server_commits_per_cycle", obs.LinearBuckets(0, 1, 16))
	s.hVerifyNs = s.obs.Histogram("server_verify_ns", obs.Pow2Buckets(10, 20))
	for i, v := range cfg.InitialValues {
		if i >= cfg.Objects {
			break
		}
		s.committed[i] = append([]byte(nil), v...)
	}
	s.cfg.InitialValues = nil // copied above: the seed database is the caller's to free
	return s, nil
}

// Layout reports the broadcast layout in force.
func (s *Server) Layout() bcast.Layout { return s.layout }

// Program reports the broadcast program in force (nil = flat).
func (s *Server) Program() *airsched.Program { return s.cfg.Program }

// CurrentCycle reports the cycle currently on the air (0 before the
// first StartCycle).
func (s *Server) CurrentCycle() cmatrix.Cycle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycle
}

// Obs returns the server's metrics registry (Config.Obs, or the
// private registry created when none was supplied).
func (s *Server) Obs() *obs.Registry { return s.obs }

// Tracer returns the server's cycle-clock tracer (nil when untraced).
func (s *Server) Tracer() *obs.Tracer { return s.trace }

// AuditLog returns the in-order committed update log (empty unless
// Config.Audit).
func (s *Server) AuditLog() []cmatrix.Commit {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]cmatrix.Commit, len(s.audit))
	copy(out, s.audit)
	return out
}

// VerifyControl cross-checks the incrementally maintained control
// information against a definition-based rebuild out of the audit log:
// the C matrix (or exact C behind the grouped MC) must equal the
// cmatrix.FromLog reconstruction (Theorem 2), grouped MC columns must
// equal the projection max_{j∈s} C(i,j), and vector entries and
// lastCycle must equal the last committed write cycle per object. It
// requires Config.Audit.
//
// Verification is incremental: a LogRebuilder folds in only the audit
// suffix committed since the previous call and reports which columns it
// recomputed, so each call costs O(changed-columns × n) instead of
// re-deriving the whole O(|log| × n) history — earlier calls vouch for
// the unchanged columns. Grouped MC is rechecked for the groups those
// columns fall in (all groups on the first call and after a regroup).
func (s *Server) VerifyControl() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cfg.Audit {
		return errors.New("server: VerifyControl requires Config.Audit")
	}
	if s.remoteApplies > 0 {
		// Cross-shard commits degraded the control state conservatively
		// (ApplyRemote): it dominates the Theorem 2 rebuild instead of
		// equaling it, so the equality check no longer applies. The
		// conformance harness checks the domination property against a
		// fully-informed reference server instead.
		return nil
	}
	if s.rb == nil {
		s.rb = cmatrix.NewLogRebuilder(s.cfg.Objects)
	}
	changed := s.rb.Extend(s.audit[s.rb.Len():])
	want := s.rb.Matrix()
	switch c := s.control.(type) {
	case *cmatrix.DenseControl:
		if i, j, bad := c.Matrix().DiffCols(want, changed); bad {
			return fmt.Errorf("server: incremental C(%d,%d) = %d but from-scratch rebuild says %d after %d commits (Theorem 2 violated)",
				i, j, c.Matrix().At(i, j), want.At(i, j), len(s.audit))
		}
	case *cmatrix.VectorControl:
		for _, j := range changed {
			if got := c.Vector().At(j); got != s.rb.LastWrite(j) {
				return fmt.Errorf("server: incremental V(%d) = %d but from-scratch rebuild says %d after %d commits",
					j, got, s.rb.LastWrite(j), len(s.audit))
			}
		}
	case *cmatrix.GroupedControl:
		if err := s.verifyGroupedLocked(c, changed); err != nil {
			return err
		}
	default:
		return fmt.Errorf("server: no verification for control representation %T", c)
	}
	for _, j := range changed {
		if s.lastCycle[j] != s.rb.LastWrite(j) {
			return fmt.Errorf("server: lastCycle[%d] = %d but audit log says %d", j, s.lastCycle[j], s.rb.LastWrite(j))
		}
	}
	return nil
}

// verifyGroupedLocked checks the grouped control state against the
// rebuilder: the exact C over the changed columns, then the MC columns
// of every group a changed column falls in (or all groups when the
// partition moved) against the projection of the rebuilt matrix.
func (s *Server) verifyGroupedLocked(c *cmatrix.GroupedControl, changed []int) error {
	want := s.rb.Matrix()
	for _, j := range changed {
		for i := 0; i < s.cfg.Objects; i++ {
			if got := c.At(i, j); got != want.At(i, j) {
				return fmt.Errorf("server: grouped exact C(%d,%d) = %d but from-scratch rebuild says %d after %d commits (Theorem 2 violated)",
					i, j, got, want.At(i, j), len(s.audit))
			}
		}
	}
	part := c.Part()
	recheck := make(map[int]bool)
	if s.verifyAllGroups {
		for g := 0; g < part.Groups(); g++ {
			recheck[g] = true
		}
	} else {
		for _, j := range changed {
			recheck[part.GroupOf(j)] = true
		}
	}
	if len(recheck) > 0 {
		// Project the rebuilt matrix through the partition, group by
		// group: mc[i] = max over the group's members of C(i, j).
		members := make(map[int][]int)
		for j := 0; j < s.cfg.Objects; j++ {
			if g := part.GroupOf(j); recheck[g] {
				members[g] = append(members[g], j)
			}
		}
		mc := make([]cmatrix.Cycle, s.cfg.Objects)
		for g := range recheck { // empty groups must still read all-zero
			objs := members[g]
			clear(mc)
			for _, j := range objs {
				for i := range mc {
					if v := want.At(i, j); v > mc[i] {
						mc[i] = v
					}
				}
			}
			for i, v := range mc {
				if got := c.MC(i, g); got != v {
					return fmt.Errorf("server: grouped MC(%d,%d) = %d but the projection of the rebuilt C says %d after %d commits",
						i, g, got, v, len(s.audit))
				}
			}
		}
	}
	s.verifyAllGroups = false
	return nil
}

// Subscribe tunes a client in with the given channel buffer.
func (s *Server) Subscribe(buffer int) *bcast.Subscription {
	return s.medium.Subscribe(buffer)
}

// Close shuts the server down and closes every subscription.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.medium.Close()
}

// StartCycle begins the next broadcast cycle: it snapshots the committed
// database and control information as of this instant — transactions
// committed during earlier cycles — publishes the cycle on the medium,
// and returns it (nil on a closed server): StartCycleAcross over s.
func (s *Server) StartCycle() *bcast.CycleBroadcast {
	var cb [1]*bcast.CycleBroadcast
	StartCycleAcross([]*Server{s}, cb[:])
	return cb[0]
}

// StartCycleAcross is the one cycle edge of a server or a fleet: under
// every server's mu, taken in SubmitAcross's order so the two cannot
// deadlock, it advances and snapshots each server into cbs[i]; then it
// runs each sampled verification and publishes. A cross-shard commit
// falls wholly before or after it. If any server is closed, none
// advances and every cbs[i] is nil.
func StartCycleAcross(servers []*Server, cbs []*bcast.CycleBroadcast) {
	closed := false
	for _, s := range servers {
		s.mu.Lock()
		closed = closed || s.closed
	}
	if !closed {
		for i, s := range servers {
			cbs[i] = s.advanceLocked()
		}
	}
	for _, s := range servers {
		s.mu.Unlock()
	}
	if closed {
		clear(cbs)
		return
	}
	for i, s := range servers {
		if s.cfg.VerifySample > 0 && s.cfg.Audit && int64(cbs[i].Number)%int64(s.cfg.VerifySample) == 0 {
			// Sampled integrity check: wall-clock cost lands in the
			// registry (server_verify_ns) but never in the trace.
			t0 := time.Now()
			err := s.VerifyControl()
			s.hVerifyNs.Observe(time.Since(t0).Nanoseconds())
			if err != nil {
				s.cVerifyFail.Inc()
			}
		}
		s.medium.Publish(cbs[i])
	}
}

// advanceLocked moves to the next cycle and snapshots the committed
// values and control state into its broadcast. Callers hold mu.
func (s *Server) advanceLocked() *bcast.CycleBroadcast {
	s.cycle++
	s.cCycles.Inc()
	s.hCommitsCycle.Observe(s.cycleCommits)
	s.trace.Emit(obs.EvCycleStart, obs.ActorServer, int64(s.cycle), 0, s.cycleCommits)
	s.cycleCommits = 0
	if s.heat != nil && s.cycle > 1 && (int(s.cycle)-1)%s.cfg.RegroupEvery == 0 {
		s.regroupLocked()
	}
	cb := &bcast.CycleBroadcast{
		Number: s.cycle,
		Layout: s.layout,
		Values: make([][]byte, len(s.committed)),
	}
	copy(cb.Values, s.committed) // shared, not copied: see committed
	if prev := s.cycle - 1; prev > 0 {
		// The previous cycle's written objects in id order, out of lastCycle;
		// counted first so the one allocation is exact (empty, not nil, when quiet).
		n := 0
		for _, c := range s.lastCycle {
			if c == prev {
				n++
			}
		}
		cb.Written = make([]int, 0, n)
		for obj, c := range s.lastCycle {
			if c == prev {
				cb.Written = append(cb.Written, obj)
			}
		}
	}
	switch c := s.control.(type) {
	case *cmatrix.DenseControl:
		// Copy-on-write: the published snapshot shares columns with the
		// live matrix; installLocked's Apply never writes a column a
		// snapshot has seen, so subscribers read a stable cycle image.
		cb.Matrix = c.Matrix().Snapshot()
	case *cmatrix.VectorControl:
		cb.Vector = c.Vector().Clone()
	case *cmatrix.GroupedControl:
		cb.Grouped = c.Grouped()
	}
	if s.trace != nil { // the hash walks all of the control state: only for a tracer
		s.trace.Emit(obs.EvSnapshotPublish, obs.ActorServer, int64(s.cycle), 0, controlFingerprint(cb))
	}
	return cb
}

// controlFingerprint hashes the control payload of a cycle broadcast
// (FNV-1a over the entries). It stamps the snapshot-publish trace
// event so divergent control state shows up as divergent traces; two
// correct servers using *different* control representations (vector vs
// full matrix) legitimately differ here, which is why the conformance
// harness compares traces modulo snapshot-publish events.
func controlFingerprint(cb *bcast.CycleBroadcast) int64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	switch {
	case cb.Matrix != nil:
		n := cb.Matrix.N()
		mix(1)
		for j := 0; j < n; j++ {
			for _, c := range cb.Matrix.Col(j) {
				mix(uint64(c))
			}
		}
	case cb.Vector != nil:
		mix(2)
		for j := 0; j < cb.Vector.N(); j++ {
			mix(uint64(cb.Vector.At(j)))
		}
	case cb.Grouped != nil:
		mix(3)
		n, g := cb.Grouped.N(), cb.Grouped.Groups()
		for i := 0; i < n; i++ {
			for s := 0; s < g; s++ {
				mix(uint64(cb.Grouped.At(i, s)))
			}
		}
	}
	return int64(h)
}

// regroupLocked re-derives the partition from the write-heat estimate
// at a deterministic regroup epoch. Callers hold mu; the server must be
// running the grouped protocol with RegroupEvery > 0.
func (s *Server) regroupLocked() {
	c := s.control.(*cmatrix.GroupedControl)
	np := cmatrix.HeatPartition(s.heat.Weights(), s.cfg.Groups)
	if np.Equal(s.partition) {
		return // identical grouping: keep the epoch, spare clients a resync
	}
	churn := c.Regroup(np)
	s.partition = np
	s.regroupEpoch++
	s.verifyAllGroups = true
	s.cRegroupChurn.Add(int64(churn))
	s.trace.Emit(obs.EvCycleStart, obs.ActorServer, int64(s.cycle), 1, int64(churn))
}

// Partition reports the grouping in force (nil unless grouped).
func (s *Server) Partition() *cmatrix.Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partition
}

// RegroupEvery reports the configured regroup interval (0 = static
// partition).
func (s *Server) RegroupEvery() int { return s.cfg.RegroupEvery }

// RegroupEpoch reports the current regroup epoch: 0 at start, bumped
// whenever the partition changes. Epochs only move inside StartCycle,
// so the value read after a StartCycle matches the cycle it returned.
func (s *Server) RegroupEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.regroupEpoch
}

// update is an update transaction in normal form: the distinct objects
// read and written, in first-occurrence order, and the writes as
// submitted — installed in that order, so the last value written to an
// object wins. Nothing changes it once built, so the audit log keeps
// its sets (shape reuses their array only when Audit is off); writes is
// the request's own slice, valid for the call, which installLocked
// copies value by value.
type update struct {
	readSet  []int
	writeSet []int
	writes   []protocol.ObjectWrite
}

// shape reduces an uplink request to its update, reading nothing but
// the configured dimensions: a malformed request is refused before the
// currency rule is asked (malformed first is the commit path's one
// precedence rule). Callers hold mu for the seen and ids scratch.
func (s *Server) shape(req protocol.UpdateRequest) (update, error) {
	for _, r := range req.Reads {
		if err := s.checkObj(r.Obj); err != nil {
			return update{}, err
		}
	}
	for _, w := range req.Writes {
		if err := s.checkWrite(w.Obj, w.Value); err != nil {
			return update{}, err
		}
	}
	// One array backs both sets, each capped so neither grows into the
	// other; seen marks the set being built and is cleared behind it.
	// Only the audit log keeps the sets past the call.
	ids := s.ids[:0]
	if s.cfg.Audit {
		ids = make([]int, 0, len(req.Reads)+len(req.Writes))
	}
	add := func(obj int) {
		if !s.seen[obj] {
			s.seen[obj] = true
			ids = append(ids, obj)
		}
	}
	for _, r := range req.Reads {
		add(r.Obj)
	}
	nr := len(ids)
	for _, obj := range ids {
		s.seen[obj] = false
	}
	for _, w := range req.Writes {
		add(w.Obj)
	}
	for _, obj := range ids[nr:] {
		s.seen[obj] = false
	}
	s.ids = ids
	return update{readSet: ids[:nr:nr], writeSet: ids[nr:len(ids):len(ids)], writes: req.Writes}, nil
}

// admitLocked is the commit rule (§3.2.1). A read of obj at cycle c saw
// the state as of the beginning of c, so it is current iff no write to
// obj committed during or after c. The install follows in the same
// critical section, so nothing can commit in between. Callers hold mu.
func (s *Server) admitLocked(reads []protocol.ReadAt) error {
	for _, r := range reads {
		if s.lastCycle[r.Obj] >= r.Cycle {
			return fmt.Errorf("%w: object %d written during cycle %d, read at cycle %d",
				ErrConflict, r.Obj, s.lastCycle[r.Obj], r.Cycle)
		}
	}
	return nil
}

// installLocked is the one place a transaction becomes committed: the
// update is installed at the current cycle and folded into the control
// state by Theorem 2 or, when remote says its read set extends beyond
// this server's objects, by the conservative ApplyRemote (which ends
// VerifyControl's equality claim). Without writes there is nothing to
// commit: no commit slot, no audit entry. Callers hold mu.
func (s *Server) installLocked(u update, remote bool) {
	if len(u.writeSet) == 0 {
		return
	}
	commitCycle := s.cycle
	for _, obj := range u.writeSet {
		s.version[obj]++
		s.lastCycle[obj] = commitCycle
	}
	for _, w := range u.writes {
		s.committed[w.Obj] = append([]byte(nil), w.Value...)
	}
	if remote {
		s.control.ApplyRemote(u.writeSet, commitCycle)
		s.remoteApplies++
	} else {
		s.control.Apply(u.readSet, u.writeSet, commitCycle)
	}
	if s.heat != nil {
		s.heat.Observe(u.writeSet)
	}
	s.cCommits.Inc()
	s.cycleCommits++
	// Matrix churn: the write set's columns are rewritten, one per
	// distinct written object. A dense matrix stores them as one column
	// per commit, which they all share.
	s.cColsRewritten.Add(int64(len(u.writeSet)))
	if s.cfg.Audit {
		s.audit = append(s.audit, cmatrix.Commit{ReadSet: u.readSet, WriteSet: u.writeSet, Cycle: commitCycle})
	}
}

func (s *Server) checkObj(obj int) error {
	if obj < 0 || obj >= s.cfg.Objects {
		return fmt.Errorf("server: object %d out of range [0,%d)", obj, s.cfg.Objects)
	}
	return nil
}

// checkWrite rejects a write out of range or too wide for its broadcast slot.
func (s *Server) checkWrite(obj int, val []byte) error {
	if err := s.checkObj(obj); err != nil {
		return err
	}
	if int64(len(val))*8 > s.cfg.ObjectBits {
		return fmt.Errorf("server: value for object %d is %d bytes, broadcast slot holds %d bits", obj, len(val), s.cfg.ObjectBits)
	}
	return nil
}

// SubmitUpdate validates and commits a client update transaction
// shipped over the uplink: the write set with values, plus every read
// the client performed and the cycle it was performed in — shape, admit
// and install in one critical section. Success means the transaction is
// committed; any error means it must abort.
//
// SubmitUpdate implements protocol.Uplink.
func (s *Server) SubmitUpdate(req protocol.UpdateRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.cUplink.Inc()
	u, err := s.shape(req)
	if err != nil {
		return err
	}
	if err := s.admitLocked(req.Reads); err != nil {
		s.cAborts.Inc()
		s.emitVerdict(0)
		return err
	}
	s.installLocked(u, false)
	s.emitVerdict(1)
	return nil
}

// SubmitAcross commits one update transaction that spans several
// servers, the shards of a fleet, as SubmitUpdate's rule applied to the
// union of its projections: reqs[i] is the transaction's projection
// onto servers[i] in that server's object ids, and remote[i] says its
// read set extends beyond servers[i], so its install takes the
// conservative ApplyRemote (installLocked). Every server's mu is held
// for the whole call, taken in the order given: callers pass distinct
// servers in one global order (the fleet's ascending shard ids), so two
// calls cannot deadlock. Every projection is shaped, then admitted, and
// only when all of them pass is each installed, at the servers' one
// current cycle (they advance together, StartCycleAcross). nil means
// the transaction committed on every server; any error means it
// committed on none. Each request is valid for the call
// (protocol.Uplink).
func SubmitAcross(servers []*Server, reqs []protocol.UpdateRequest, remote []bool) error {
	for _, s := range servers {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
	}
	us := make([]update, len(servers))
	for i, s := range servers {
		s.cUplink.Inc()
		u, err := s.shape(reqs[i])
		if err != nil {
			return err
		}
		us[i] = u
	}
	for i, s := range servers {
		if err := s.admitLocked(reqs[i].Reads); err != nil {
			s.cAborts.Inc()
			s.emitVerdict(0)
			return err
		}
	}
	for i, s := range servers {
		s.installLocked(us[i], remote[i])
		s.emitVerdict(1)
	}
	return nil
}

// emitVerdict traces an uplink decision (1 accept, 0 reject) at the
// current cycle. Callers hold mu.
func (s *Server) emitVerdict(verdict int64) {
	s.trace.Emit(obs.EvUplinkVerdict, obs.ActorServer, int64(s.cycle), 0, verdict)
}

// Txn is a server-local update transaction: it reads the latest
// committed values and buffers writes; Commit validates optimistically
// (each read version must still be current) and installs atomically.
// A Txn is not safe for concurrent use, but any number of Txns may run
// concurrently against the server. A transaction touches a handful of
// objects, so it finds them by scanning its sets.
type Txn struct {
	s    *Server
	u    update  // reads in first-read order, buffered writes (one per object, parallel to writeSet)
	vers []int64 // vers[k] = version of u.readSet[k] when it was read
	done bool
}

// Begin starts a server-local update transaction.
func (s *Server) Begin() *Txn { return &Txn{s: s} }

// Read returns the latest committed value of obj (its own buffered write
// if it wrote obj earlier), recording the version for commit-time
// validation.
func (t *Txn) Read(obj int) ([]byte, error) {
	if t.done {
		return nil, ErrTxnFinished
	}
	if err := t.s.checkObj(obj); err != nil {
		return nil, err
	}
	if i := slices.Index(t.u.writeSet, obj); i >= 0 {
		return append([]byte(nil), t.u.writes[i].Value...), nil
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.s.closed {
		return nil, ErrClosed
	}
	if !slices.Contains(t.u.readSet, obj) {
		t.u.readSet = append(t.u.readSet, obj)
		t.vers = append(t.vers, t.s.version[obj])
	}
	return append([]byte(nil), t.s.committed[obj]...), nil
}

// Write buffers a write of val to obj.
func (t *Txn) Write(obj int, val []byte) error {
	if t.done {
		return ErrTxnFinished
	}
	if err := t.s.checkWrite(obj, val); err != nil {
		return err
	}
	i := slices.Index(t.u.writeSet, obj)
	if i < 0 {
		i = len(t.u.writes)
		t.u.writeSet = append(t.u.writeSet, obj)
		t.u.writes = append(t.u.writes, protocol.ObjectWrite{Obj: obj})
	}
	t.u.writes[i].Value = append([]byte(nil), val...)
	return nil
}

// Commit validates and installs the transaction. ErrConflict means a
// read was stale (the first in read order is named) and the transaction
// aborted; the caller may Begin a new attempt. Versions are finer than
// the cycle stamps an uplink request carries; installation is the
// uplink path's.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.s.closed {
		return ErrClosed
	}
	for k, obj := range t.u.readSet {
		if t.s.version[obj] != t.vers[k] {
			t.s.cAborts.Inc()
			return fmt.Errorf("%w: object %d changed since it was read", ErrConflict, obj)
		}
	}
	t.s.installLocked(t.u, false)
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() { t.done = true }
