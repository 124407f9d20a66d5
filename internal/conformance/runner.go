package conformance

import (
	"bytes"
	"fmt"
	"reflect"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/faultair"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// Violation is one failed conformance invariant.
type Violation struct {
	// Kind names the invariant, e.g. KindFMatrixBeyondApprox.
	Kind string
	// Client and Txn identify the offending client transaction; both
	// are -1 for server-level violations.
	Client, Txn int
	// Detail is a human-readable description.
	Detail string
	// History is the induced history the oracle judged, in the paper's
	// parseable notation (empty for server-level violations).
	History string
}

func (v Violation) String() string {
	at := ""
	if v.Client >= 0 {
		at = fmt.Sprintf(" (client %d txn %d)", v.Client, v.Txn)
	}
	return fmt.Sprintf("%s%s: %s", v.Kind, at, v.Detail)
}

// Violation kinds. The first group are acceptance-lattice inclusions
// (per read-only transaction), the second server-side invariants.
const (
	KindDatacycleBeyondRMatrix = "datacycle-beyond-rmatrix"
	KindRMatrixBeyondFMatrix   = "rmatrix-beyond-fmatrix"
	KindDatacycleBeyondGrouped = "datacycle-beyond-grouped"
	KindGroupedBeyondFMatrix   = "grouped-beyond-fmatrix"
	KindFMatrixBeyondApprox    = "fmatrix-beyond-approx"
	KindApproxBeyondUC         = "approx-beyond-update-consistent"
	KindCacheValidatorDiverged = "cache-validator-divergence"
	KindCachedDCBeyondFMatrix  = "datacycle-cache-beyond-fmatrix-cache"
	KindCacheStaleness         = "cache-currency-bound-exceeded"
	KindWholeRunApprox         = "whole-run-approx"

	KindTheorem2       = "theorem2-incremental-maintenance"
	KindSnapshotStale  = "snapshot-rebuild-mismatch"
	KindCOWAliasing    = "cow-aliasing"
	KindServerDiverged = "server-divergence"

	KindAirRebroadcast = "air-rebroadcast-column"
	KindAirIndex       = "air-index-desync"
	KindGroupedWire    = "grouped-wire-roundtrip"

	KindTraceDiverged = "cycle-trace-divergence"

	KindShardWire          = "shard-wire-divergence"
	KindShardControl       = "shard-control-domination"
	KindShardState         = "shard-state-divergence"
	KindShardVerdict       = "shard-verdict-divergence"
	KindShardDiverged      = "shard-acceptance-divergence"
	KindShardBeyondFMatrix = "shard-beyond-fmatrix"
)

// resolvedTxn is a client transaction with its reads pinned to concrete
// cycles: the pure function of (workload, fault schedule) every
// protocol validates the same way.
type resolvedTxn struct {
	client, index int
	update        bool
	cached        bool // at least one cached (out-of-order) read
	truncated     bool // the run ended before all reads completed
	reads         []protocol.ReadAt
	// ages[i] is how many cycles stale read i was served (cursor minus
	// served cycle; 0 for fresh reads) — what the per-profile currency
	// bound is checked against.
	ages     []cmatrix.Cycle
	writes   []int
	submitAt cmatrix.Cycle // uplink arrival cycle (update txns)
	uplinkOK bool          // server accepted the uplink commit
}

// cycleSnap retains one cycle's published control information: the
// vector server's vector, the matrix server's copy-on-write snapshot
// (plus a deep clone taken at publish time for the aliasing check), and
// the grouped server's MC matrix.
type cycleSnap struct {
	vec    *cmatrix.Vector
	mat    *cmatrix.Matrix
	matRef *cmatrix.Matrix
	grp    *cmatrix.Grouped
}

// airTrace is the deterministic record of one workload run.
type airTrace struct {
	log        []cmatrix.Commit
	snaps      []cycleSnap // index by cycle number; [0] unused
	txns       []*resolvedTxn
	violations []Violation
	// vecTrace, matTrace and grpTrace are the three servers' full
	// cycle-clock event traces (snapshot-publish events included).
	vecTrace, matTrace, grpTrace []obs.Event
}

// traceModuloControl filters representation-dependent events out of a
// trace: snapshot publishes (their Arg fingerprints the concrete
// control payload — vector, full matrix and grouped MC legitimately
// hash differently) and the grouped server's regroup markers
// (EvCycleStart with Frame 1), which only a regrouping representation
// emits.
func traceModuloControl(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(evs))
	for _, e := range evs {
		if e.Kind == obs.EvSnapshotPublish {
			continue
		}
		if e.Kind == obs.EvCycleStart && e.Frame == 1 {
			continue
		}
		out = append(out, e)
	}
	return out
}

// compareTraces checks the lockstep trace invariant over two servers'
// full traces and, on divergence, builds the violation naming the first
// differing event.
func compareTraces(nameA string, a []obs.Event, nameB string, b []obs.Event) (Violation, bool) {
	fa, fb := traceModuloControl(a), traceModuloControl(b)
	if bytes.Equal(obs.EncodeTrace(fa), obs.EncodeTrace(fb)) {
		return Violation{}, true
	}
	detail := fmt.Sprintf("%s server emitted %d events, %s server %d (modulo snapshot publishes)", nameA, len(fa), nameB, len(fb))
	for i := 0; i < len(fa) && i < len(fb); i++ {
		if fa[i] != fb[i] {
			detail = fmt.Sprintf("event %d: %s server %s c%d f%d arg=%d, %s server %s c%d f%d arg=%d",
				i, nameA, fa[i].Kind, fa[i].Cycle, fa[i].Frame, fa[i].Arg,
				nameB, fb[i].Kind, fb[i].Cycle, fb[i].Frame, fb[i].Arg)
			break
		}
	}
	return Violation{Kind: KindTraceDiverged, Client: -1, Txn: -1, Detail: detail}, false
}

// resolveReads pins every planned read to the cycle it is performed in,
// skipping cycles the client's tuner misses. Fresh reads advance the
// cursor; cached reads re-use an older received cycle without advancing
// it. Reads that cannot complete before the run ends truncate the
// transaction.
//
// When the workload assigns the client a cache profile, the model
// enforces it exactly like the real client does: T = 0 turns every read
// fresh, T > 0 clamps the cache age to T, and a Size bound degrades
// excess cached reads to fresh ones. Under DefectCacheSkip the currency
// enforcement is skipped, and the oracle's staleness check must catch
// the stale serves.
//
// The returned ages slice parallels reads: how many cycles stale each
// read was served (0 for fresh reads).
func resolveReads(w *Workload, sched *faultair.Schedule, cli int, txn PlannedTxn) (reads []protocol.ReadAt, ages []cmatrix.Cycle, truncated bool) {
	next := func(from cmatrix.Cycle) (cmatrix.Cycle, bool) {
		if from < 1 {
			from = 1
		}
		if sched == nil {
			if from > w.Cycles {
				return 0, false
			}
			return from, true
		}
		return sched.NextReceived(cli, from, w.Cycles)
	}
	prof := w.ProfileFor(cli)
	budget := -1 // cached reads remaining; -1 = unlimited
	if prof != nil && prof.Size > 0 {
		budget = prof.Size
	}
	cursor := txn.Start
	fresh := false
	for _, r := range txn.Reads {
		age := r.CacheAge
		if prof != nil && w.Defect != DefectCacheSkip {
			switch {
			case prof.T == 0:
				age = 0 // caching disabled: every read is fresh
			case prof.T > 0 && age > prof.T:
				age = prof.T // currency bound clamps the serving age
			}
		}
		if age > 0 && budget == 0 {
			age = 0 // cache full: the entry was evicted, read fresh
		}
		if age > 0 && fresh {
			// Cached read: validated at the oldest received cycle within
			// age cycles of the cursor (maximizing out-of-orderness);
			// the cursor — the client's position on the air — stays put.
			at, ok := next(cursor - cmatrix.Cycle(age))
			if !ok || at > cursor {
				at = cursor // the cursor's cycle was received
			}
			reads = append(reads, protocol.ReadAt{Obj: r.Obj, Cycle: at})
			ages = append(ages, cursor-at)
			if budget > 0 {
				budget--
			}
			continue
		}
		at, ok := next(cursor + cmatrix.Cycle(r.Step))
		if !ok {
			return reads, ages, true
		}
		cursor = at
		fresh = true
		reads = append(reads, protocol.ReadAt{Obj: r.Obj, Cycle: at})
		ages = append(ages, 0)
	}
	return reads, ages, false
}

// runAir executes the workload against three real servers in lockstep —
// one broadcasting the control vector, one the full C matrix, one the
// grouped MC matrix — fed the identical commit stream, and retains
// every cycle's published control snapshot. Server-side invariants
// (Theorem 2 maintenance, snapshot immutability, lockstep agreement)
// are checked as it goes.
func runAir(w *Workload) (*airTrace, error) {
	// Every cycle emits a start and a snapshot-publish event, every
	// uplink submission a verdict, and the grouped server may add one
	// regroup marker per cycle; size the rings so nothing is dropped —
	// the trace comparison below needs complete traces.
	traceCap := 3*int(w.Cycles) + w.TxnCount() + 16
	vecTr, matTr, grpTr := obs.NewTracer(traceCap), obs.NewTracer(traceCap), obs.NewTracer(traceCap)
	mk := func(alg protocol.Algorithm, trace *obs.Tracer) (*server.Server, error) {
		return server.New(server.Config{
			Objects:    w.Objects,
			ObjectBits: 64,
			Algorithm:  alg,
			Audit:      true,
			Trace:      trace,
		})
	}
	vecSrv, err := mk(protocol.RMatrix, vecTr)
	if err != nil {
		return nil, err
	}
	matSrv, err := mk(protocol.FMatrix, matTr)
	if err != nil {
		return nil, err
	}
	// The grouped server uses 32-bit control timestamps so the BCG1
	// round-trip check below is exact (workload cycles can exceed the
	// default 8-bit wrap window).
	grpSrv, err := server.New(server.Config{
		Objects:        w.Objects,
		ObjectBits:     64,
		TimestampBits:  32,
		Algorithm:      protocol.Grouped,
		Groups:         w.GroupsOrDefault(),
		StaleGroupedMC: w.Defect == DefectStaleMC,
		RegroupEvery:   w.RegroupEvery,
		Audit:          true,
		Trace:          grpTr,
	})
	if err != nil {
		return nil, err
	}
	defer vecSrv.Close()
	defer matSrv.Close()
	defer grpSrv.Close()

	var sched *faultair.Schedule
	if !w.Faults.Zero() {
		sched = faultair.NewSchedule(w.Faults)
	}

	tr := &airTrace{snaps: make([]cycleSnap, w.Cycles+1)}
	for cli, txns := range w.Clients {
		for ti, txn := range txns {
			rt := &resolvedTxn{client: cli, index: ti, update: len(txn.Writes) > 0}
			rt.reads, rt.ages, rt.truncated = resolveReads(w, sched, cli, txn)
			if w.ProfileFor(cli) == nil {
				// Profile-less clients keep the pre-profile semantics
				// (cached-ness follows the plan), so old corpus entries
				// replay with identical verdicts.
				for _, r := range txn.Reads[:len(rt.reads)] {
					if r.CacheAge > 0 {
						rt.cached = true
					}
				}
			} else {
				// Profiled clients are cached exactly when a read was
				// actually served stale after currency enforcement.
				for _, a := range rt.ages {
					if a > 0 {
						rt.cached = true
					}
				}
			}
			if rt.update && !rt.truncated && len(rt.reads) > 0 {
				rt.writes = txn.Writes
				last := rt.reads[len(rt.reads)-1].Cycle
				rt.submitAt = min(last+cmatrix.Cycle(txn.SubmitLag), w.Cycles)
			}
			tr.txns = append(tr.txns, rt)
		}
	}

	serverTxn := func(s *server.Server, c PlannedCommit) error {
		t := s.Begin()
		for _, obj := range c.ReadSet {
			if _, err := t.Read(obj); err != nil {
				return err
			}
		}
		for _, obj := range c.WriteSet {
			if err := t.Write(obj, []byte{byte(obj)}); err != nil {
				return err
			}
		}
		return t.Commit()
	}

	for c := cmatrix.Cycle(1); c <= w.Cycles; c++ {
		cbV, cbM, cbG := vecSrv.StartCycle(), matSrv.StartCycle(), grpSrv.StartCycle()
		if cbV == nil || cbM == nil || cbG == nil || cbV.Number != c || cbM.Number != c || cbG.Number != c {
			return nil, fmt.Errorf("conformance: servers fell out of lockstep at cycle %d", c)
		}
		tr.snaps[c] = cycleSnap{vec: cbV.Vector, mat: cbM.Matrix, matRef: cbM.Matrix.Clone(), grp: cbG.Grouped}

		// The grouped control column must survive the sparse BCG1 wire
		// format bit-exactly, partition included.
		frame, err := wire.EncodeGroupedCycle(cbG, grpSrv.RegroupEpoch(), true)
		if err != nil {
			return nil, fmt.Errorf("conformance: encoding grouped cycle %d: %v", c, err)
		}
		if dec, _, err := wire.DecodeGroupedCycle(frame, nil, 0); err != nil {
			tr.violations = append(tr.violations, Violation{
				Kind: KindGroupedWire, Client: -1, Txn: -1,
				Detail: fmt.Sprintf("cycle %d: grouped frame does not decode: %v", c, err),
			})
		} else if dec.Number != c || !dec.Grouped.Equal(cbG.Grouped) {
			tr.violations = append(tr.violations, Violation{
				Kind: KindGroupedWire, Client: -1, Txn: -1,
				Detail: fmt.Sprintf("cycle %d: grouped MC drifted through the wire round-trip", c),
			})
		}

		for ci, pc := range w.Commits {
			if pc.At != c {
				continue
			}
			errV, errM, errG := serverTxn(vecSrv, pc), serverTxn(matSrv, pc), serverTxn(grpSrv, pc)
			if (errV == nil) != (errM == nil) || (errG == nil) != (errM == nil) {
				tr.violations = append(tr.violations, Violation{
					Kind: KindServerDiverged, Client: -1, Txn: -1,
					Detail: fmt.Sprintf("commit %d at cycle %d: vector server err=%v, matrix server err=%v, grouped server err=%v", ci, c, errV, errM, errG),
				})
			} else if errV != nil {
				return nil, fmt.Errorf("conformance: background commit %d failed: %v", ci, errV)
			}
		}
		for _, rt := range tr.txns {
			if !rt.update || rt.truncated || len(rt.reads) == 0 || rt.submitAt != c {
				continue
			}
			req := protocol.UpdateRequest{Reads: rt.reads}
			for _, obj := range rt.writes {
				req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: obj, Value: []byte{byte(obj)}})
			}
			errV, errM, errG := vecSrv.SubmitUpdate(req), matSrv.SubmitUpdate(req), grpSrv.SubmitUpdate(req)
			if (errV == nil) != (errM == nil) || (errG == nil) != (errM == nil) {
				tr.violations = append(tr.violations, Violation{
					Kind: KindServerDiverged, Client: rt.client, Txn: rt.index,
					Detail: fmt.Sprintf("uplink at cycle %d: vector server err=%v, matrix server err=%v, grouped server err=%v", c, errV, errM, errG),
				})
			}
			rt.uplinkOK = errM == nil
		}

		// Theorem 2: the incrementally maintained control state must
		// match a from-scratch rebuild after every cycle's commits.
		for _, srv := range []struct {
			name string
			s    *server.Server
		}{{"vector", vecSrv}, {"matrix", matSrv}, {"grouped", grpSrv}} {
			if err := srv.s.VerifyControl(); err != nil {
				tr.violations = append(tr.violations, Violation{
					Kind: KindTheorem2, Client: -1, Txn: -1,
					Detail: fmt.Sprintf("%s server after cycle %d: %v", srv.name, c, err),
				})
			}
		}
	}

	tr.log = matSrv.AuditLog()
	if vecLog := vecSrv.AuditLog(); !reflect.DeepEqual(vecLog, tr.log) {
		tr.violations = append(tr.violations, Violation{
			Kind: KindServerDiverged, Client: -1, Txn: -1,
			Detail: fmt.Sprintf("audit logs diverged: vector server committed %d, matrix server %d", len(vecLog), len(tr.log)),
		})
	}
	if grpLog := grpSrv.AuditLog(); !reflect.DeepEqual(grpLog, tr.log) {
		tr.violations = append(tr.violations, Violation{
			Kind: KindServerDiverged, Client: -1, Txn: -1,
			Detail: fmt.Sprintf("audit logs diverged: grouped server committed %d, matrix server %d", len(grpLog), len(tr.log)),
		})
	}

	// Cycle-clock trace lockstep: all three servers must emit the
	// identical event sequence modulo snapshot-publish events (whose Arg
	// fingerprints the control payload — vector, matrix and grouped MC
	// legitimately hash differently) and regroup markers.
	tr.vecTrace, tr.matTrace, tr.grpTrace = vecTr.Events(), matTr.Events(), grpTr.Events()
	if d := vecTr.Dropped() + matTr.Dropped() + grpTr.Dropped(); d > 0 {
		return nil, fmt.Errorf("conformance: trace ring overflowed (%d events dropped; capacity %d)", d, traceCap)
	}
	w.Defect.skewTrace(tr.vecTrace)
	if v, ok := compareTraces("vector", tr.vecTrace, "matrix", tr.matTrace); !ok {
		tr.violations = append(tr.violations, v)
	}
	if v, ok := compareTraces("grouped", tr.grpTrace, "matrix", tr.matTrace); !ok {
		tr.violations = append(tr.violations, v)
	}

	// Copy-on-write snapshots must still equal the deep clones taken at
	// publish time, and every published representation must equal a
	// from-definition rebuild of the control state as of the beginning
	// of its cycle — the grouped MC against the projection
	// MC(i,s) = max_{j∈s} C(i,j) of the rebuilt matrix.
	prefix := 0
	for c := cmatrix.Cycle(1); c <= w.Cycles; c++ {
		snap := tr.snaps[c]
		if !snap.mat.Equal(snap.matRef) {
			i, j, _ := snap.mat.Diff(snap.matRef)
			tr.violations = append(tr.violations, Violation{
				Kind: KindCOWAliasing, Client: -1, Txn: -1,
				Detail: fmt.Sprintf("cycle %d snapshot entry C(%d,%d) mutated after publish: %d, clone has %d",
					c, i, j, snap.mat.At(i, j), snap.matRef.At(i, j)),
			})
		}
		for prefix < len(tr.log) && tr.log[prefix].Cycle < c {
			prefix++
		}
		want := cmatrix.FromLog(w.Objects, tr.log[:prefix])
		if !snap.mat.Equal(want) {
			i, j, _ := snap.mat.Diff(want)
			tr.violations = append(tr.violations, Violation{
				Kind: KindSnapshotStale, Client: -1, Txn: -1,
				Detail: fmt.Sprintf("cycle %d snapshot C(%d,%d) = %d, rebuild over %d commits says %d",
					c, i, j, snap.mat.At(i, j), prefix, want.At(i, j)),
			})
		}
		if wantG := cmatrix.GroupedOf(want, snap.grp.Part()); !snap.grp.Equal(wantG) {
			tr.violations = append(tr.violations, Violation{
				Kind: KindSnapshotStale, Client: -1, Txn: -1,
				Detail: fmt.Sprintf("cycle %d grouped snapshot differs from the projection of a rebuild over %d commits", c, prefix),
			})
		}
	}
	return tr, nil
}
