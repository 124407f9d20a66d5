package conformance

import (
	"fmt"

	"broadcastcc/internal/bctest"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/core"
	"broadcastcc/internal/protocol"
)

// TxnVerdict records every layer's accept/reject decision for one
// client transaction.
type TxnVerdict struct {
	// Client and Txn locate the transaction in Workload.Clients.
	Client, Txn int
	// Update marks an uplink update transaction; Cached marks a
	// read-only transaction with at least one cached read; Truncated
	// marks one whose reads outlived the run (no verdicts then).
	Update, Cached, Truncated bool
	// Reads is the resolved read-set the verdicts are about.
	Reads []protocol.ReadAt
	// Datacycle, RMatrix, Grouped and FMatrix are the protocol
	// validators' decisions. For cached transactions Datacycle, Grouped
	// and FMatrix use the out-of-order SnapshotValidator over the
	// corresponding control layout and RMatrix is not run (false).
	Datacycle, RMatrix, Grouped, FMatrix bool
	// Approx and UpdateConsistent are the oracle decisions over the
	// induced history. UpdateConsistent is only computed when Approx
	// rejects (Theorem 6 makes it redundant otherwise) or for update
	// transactions never; it is reported true whenever Approx is true.
	Approx, UpdateConsistent bool
	// UplinkAccepted reports the server's commit decision for update
	// transactions.
	UplinkAccepted bool
}

// Report is the full outcome of checking one workload.
type Report struct {
	Workload *Workload
	// Log is the committed-update audit log both servers produced.
	Log []cmatrix.Commit
	// Txns holds one verdict per client transaction.
	Txns []TxnVerdict
	// Violations lists every conformance failure; empty means the run
	// conforms.
	Violations []Violation
	// History is the whole-run induced history: the update log plus the
	// read-sets of every F-Matrix-accepted read-only transaction. It
	// must be APPROX-acceptable, and is the parseable reproducer
	// attached to counterexamples.
	History string
}

// Accepted counts, per protocol, how many read-only transactions were
// accepted — the quick summary bcconform prints.
func (r *Report) Accepted() (dc, rm, fm, ro int) {
	for _, tv := range r.Txns {
		if tv.Update || tv.Truncated {
			continue
		}
		ro++
		if tv.Datacycle {
			dc++
		}
		if !tv.Cached && tv.RMatrix {
			rm++
		}
		if tv.FMatrix {
			fm++
		}
	}
	return
}

// runValidator replays the resolved read sequence through one
// validator, handing each read the control snapshot of its own cycle,
// and reports whether every read was accepted.
func runValidator(v protocol.Validator, reads []protocol.ReadAt, snapAt func(cmatrix.Cycle) protocol.Snapshot) bool {
	for _, r := range reads {
		if !v.TryRead(snapAt(r.Cycle), r.Obj, r.Cycle) {
			return false
		}
	}
	return true
}

// CheckWorkload runs the workload through the dual-server air trace,
// replays every client transaction through all protocol validators over
// the retained per-cycle snapshots, judges each read-only transaction
// with the exact checkers over the induced history, and reports every
// broken lattice inclusion or server invariant.
func CheckWorkload(w *Workload) (*Report, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	tr, err := runAir(w)
	if err != nil {
		return nil, err
	}
	rep := &Report{Workload: w, Log: tr.log, Violations: tr.violations}

	// Air-program layer: replay the broadcast through the airsched wire
	// path and check the frame-level rebroadcast invariant.
	airViolations, err := checkAirProgram(w, tr.log, tr.snaps)
	if err != nil {
		return nil, err
	}
	rep.Violations = append(rep.Violations, airViolations...)

	// Sharded participant: re-drive the commit stream through a k-shard
	// fleet in lockstep with a single logical server and check verdict
	// agreement, control domination and the sharded acceptance lattice.
	shardViolations, err := runShard(w, tr)
	if err != nil {
		return nil, err
	}
	rep.Violations = append(rep.Violations, shardViolations...)

	vecAt := func(c cmatrix.Cycle) protocol.Snapshot {
		return tr.snaps[c].vec
	}
	matAt := func(c cmatrix.Cycle) protocol.Snapshot {
		return tr.snaps[c].mat
	}
	grpAt := func(c cmatrix.Cycle) protocol.Snapshot {
		return tr.snaps[c].grp
	}
	// Cached reads carry per-cycle control columns instead of whole
	// snapshots: column j of the C matrix under F-Matrix, and the
	// vector read as a (j-independent) column under Datacycle.
	vecColAt := func(obj int) func(cmatrix.Cycle) protocol.Snapshot {
		return func(c cmatrix.Cycle) protocol.Snapshot {
			col := make([]cmatrix.Cycle, w.Objects)
			for i := range col {
				col[i] = tr.snaps[c].vec.At(i)
			}
			return protocol.ColumnSnapshot{Obj: obj, Col: col}
		}
	}
	matColAt := func(obj int) func(cmatrix.Cycle) protocol.Snapshot {
		return func(c cmatrix.Cycle) protocol.Snapshot {
			col := make([]cmatrix.Cycle, w.Objects)
			for i := range col {
				col[i] = tr.snaps[c].mat.At(i, obj)
			}
			return protocol.ColumnSnapshot{Obj: obj, Col: col}
		}
	}
	grpColAt := func(obj int) func(cmatrix.Cycle) protocol.Snapshot {
		return func(c cmatrix.Cycle) protocol.Snapshot {
			col := make([]cmatrix.Cycle, w.Objects)
			for i := range col {
				col[i] = tr.snaps[c].grp.Bound(i, obj)
			}
			return protocol.ColumnSnapshot{Obj: obj, Col: col}
		}
	}
	runCached := func(reads []protocol.ReadAt, colAt func(int) func(cmatrix.Cycle) protocol.Snapshot) bool {
		v := &protocol.SnapshotValidator{}
		for _, r := range reads {
			if !v.TryRead(colAt(r.Obj)(r.Cycle), r.Obj, r.Cycle) {
				return false
			}
		}
		return true
	}

	addViolation := func(rt *resolvedTxn, kind, detail, hist string) {
		rep.Violations = append(rep.Violations, Violation{
			Kind: kind, Client: rt.client, Txn: rt.index, Detail: detail, History: hist,
		})
	}

	var fmAcceptedReads [][]protocol.ReadAt
	for _, rt := range tr.txns {
		tv := TxnVerdict{
			Client: rt.client, Txn: rt.index,
			Update: rt.update, Cached: rt.cached, Truncated: rt.truncated,
			Reads: rt.reads, UplinkAccepted: rt.uplinkOK,
		}
		if rt.truncated || len(rt.reads) == 0 {
			rep.Txns = append(rep.Txns, tv)
			continue
		}
		// The quasi-caching contract (paper §3.3): under a finite
		// currency bound T, no read may be served staler than T cycles —
		// regardless of what the validators then decide. T = ∞ profiles
		// accept any age; profile-less clients predate the contract.
		if prof := w.ProfileFor(rt.client); prof != nil && !prof.Unbounded() {
			for i, age := range rt.ages {
				if age > cmatrix.Cycle(prof.T) {
					addViolation(rt, KindCacheStaleness,
						fmt.Sprintf("read %d (obj %d) served %d cycles stale under currency bound T=%d", i, rt.reads[i].Obj, age, prof.T), "")
				}
			}
		}
		if rt.cached {
			// Out-of-order reads: production clients switch to the
			// bidirectional SnapshotValidator (R-Matrix's disjunct is
			// unsound here), so the lattice narrows to Datacycle-over-
			// columns ⊆ F-Matrix-over-columns ⊆ APPROX.
			tv.Datacycle = runCached(rt.reads, vecColAt)
			tv.Grouped = runCached(rt.reads, grpColAt)
			tv.FMatrix = runCached(rt.reads, matColAt)
			if tv.Datacycle && !tv.FMatrix {
				addViolation(rt, KindCachedDCBeyondFMatrix,
					fmt.Sprintf("cached reads %v: Datacycle columns accept but F-Matrix columns reject", rt.reads), "")
			}
			if tv.Datacycle && !tv.Grouped {
				addViolation(rt, KindDatacycleBeyondGrouped,
					fmt.Sprintf("cached reads %v: Datacycle columns accept but grouped MC columns reject", rt.reads), "")
			}
			if tv.Grouped && !tv.FMatrix {
				addViolation(rt, KindGroupedBeyondFMatrix,
					fmt.Sprintf("cached reads %v: grouped MC columns accept but F-Matrix columns reject", rt.reads), "")
			}
		} else {
			tv.Datacycle = runValidator(&protocol.ConjunctiveValidator{}, rt.reads, vecAt)
			tv.RMatrix = runValidator(&protocol.RMatrixValidator{}, rt.reads, vecAt)
			tv.Grouped = runValidator(&protocol.ConjunctiveValidator{}, rt.reads, grpAt)
			tv.FMatrix = runValidator(&protocol.ConjunctiveValidator{}, rt.reads, matAt)
			fmSnap := runValidator(&protocol.SnapshotValidator{}, rt.reads, matAt)
			if fmSnap != tv.FMatrix {
				addViolation(rt, KindCacheValidatorDiverged,
					fmt.Sprintf("in-order reads %v: conjunctive F-Matrix says %v, snapshot validator says %v", rt.reads, tv.FMatrix, fmSnap), "")
			}
			if tv.Datacycle && !tv.RMatrix {
				addViolation(rt, KindDatacycleBeyondRMatrix,
					fmt.Sprintf("reads %v: Datacycle accepts but R-Matrix rejects", rt.reads), "")
			}
			if tv.RMatrix && !tv.FMatrix {
				addViolation(rt, KindRMatrixBeyondFMatrix,
					fmt.Sprintf("reads %v: R-Matrix accepts but F-Matrix rejects", rt.reads), "")
			}
			// The grouped protocol sits strictly inside the lattice:
			// V(i) >= MC(i,s) >= C(i,j) for j in s, so its acceptance is
			// sandwiched between Datacycle and F-Matrix.
			if tv.Datacycle && !tv.Grouped {
				addViolation(rt, KindDatacycleBeyondGrouped,
					fmt.Sprintf("reads %v: Datacycle accepts but grouped MC rejects", rt.reads), "")
			}
			if tv.Grouped && !tv.FMatrix {
				addViolation(rt, KindGroupedBeyondFMatrix,
					fmt.Sprintf("reads %v: grouped MC accepts but F-Matrix rejects", rt.reads), "")
			}
		}

		if rt.update {
			// Update transactions appear in the audit log when accepted;
			// their reads are re-validated by the server, so the exact
			// checkers audit them through the whole-run history below.
			rep.Txns = append(rep.Txns, tv)
			continue
		}

		h, id := bctest.InducedHistoryWithTxn(tr.log, rt.reads)
		av := core.Approx(h)
		tv.Approx = av.OK
		if av.OK {
			tv.UpdateConsistent = true
		} else {
			uv := core.UpdateConsistent(h)
			tv.UpdateConsistent = uv.OK
			if tv.FMatrix || tv.Datacycle {
				addViolation(rt, KindFMatrixBeyondApprox,
					fmt.Sprintf("protocol accepts t%d (reads %v) but APPROX rejects: %s", id, rt.reads, av.Reason), h.String())
			}
		}
		// Theorem 6 direction: anything APPROX accepts must be update
		// consistent. (When Approx rejects, UC may go either way.)
		if tv.Approx {
			uv := core.UpdateConsistent(h)
			tv.UpdateConsistent = uv.OK
			if !uv.OK {
				addViolation(rt, KindApproxBeyondUC,
					fmt.Sprintf("APPROX accepts t%d (reads %v) but it is not update consistent: %s", id, rt.reads, uv.Reason), h.String())
			}
		}
		if tv.FMatrix {
			fmAcceptedReads = append(fmAcceptedReads, rt.reads)
		}
		rep.Txns = append(rep.Txns, tv)
	}

	// Whole-run audit: the update log plus every accepted read-only
	// read-set, judged together. The per-transaction checks are
	// independent; this catches cross-transaction interactions.
	whole := bctest.InducedHistory(tr.log, fmAcceptedReads)
	rep.History = whole.String()
	if av := core.Approx(whole); !av.OK {
		rep.Violations = append(rep.Violations, Violation{
			Kind: KindWholeRunApprox, Client: -1, Txn: -1,
			Detail: fmt.Sprintf("combined history of %d update and %d accepted read-only transactions fails APPROX: %s",
				len(tr.log), len(fmAcceptedReads), av.Reason),
			History: rep.History,
		})
	}
	return rep, nil
}

// Soak checks n consecutive seeds starting at base and returns the
// first seed whose workload violates conformance, its report, and the
// number of clean seeds checked before it. found is false when all n
// seeds conform.
func Soak(base int64, n int, p Params) (seed int64, rep *Report, clean int, found bool, err error) {
	for i := 0; i < n; i++ {
		s := base + int64(i)
		r, e := CheckWorkload(Generate(s, p))
		if e != nil {
			return s, nil, clean, false, e
		}
		if len(r.Violations) > 0 {
			return s, r, clean, true, nil
		}
		clean++
	}
	return 0, nil, clean, false, nil
}
