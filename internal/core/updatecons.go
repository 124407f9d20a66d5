package core

import "broadcastcc/internal/history"

// UpdateConsistent is the exact checker for the paper's correctness
// criterion (Theorem 3): a scheduler can determine that a history
// satisfies update consistency iff
//
//  1. the update sub-history H_update is view serializable, and
//  2. for every read-only transaction t_R, the transaction polygraph
//     P_H(t_R) over LIVE_H(t_R) is acyclic.
//
// Recognition is NP-complete even when H_update is serial (Theorem 5),
// so this exact checker is exponential in the worst case; use Approx
// for the polynomial-time recognizer that the F-Matrix and R-Matrix
// protocols implement.
func UpdateConsistent(h *history.History) Verdict {
	return criterion(h, false, "update sub-history is not view serializable: "+vsrReason, "")
}

// Approx is the paper's polynomial-time approximation algorithm
// (Section 3.1). It determines that a history is legal iff
//
//  1. H_update is conflict serializable, and
//  2. for every read-only transaction t_R, the serialization graph
//     S_H(t_R) over LIVE_H(t_R) is acyclic.
//
// Every history APPROX accepts is update consistent (Theorem 6), but
// some update-consistent histories are rejected: the inclusion is
// proper.
func Approx(h *history.History) Verdict {
	return criterion(h, true, "update sub-history is not conflict serializable: "+csrReason, "APPROX condition 2 fails: ")
}

// criterion is the walk UpdateConsistent and Approx share over the
// committed projection of h: H_update as a whole, then each read-only
// transaction against its live set, on polygraphs or, with conflicts,
// on serialization graphs. whole is the first step's Reason, and each
// prefixes the second's.
func criterion(h *history.History, conflicts bool, whole, each string) Verdict {
	committed := h.CommittedProjection()
	upd := committed.UpdateSubhistory()
	p, m := constraints(upd, nil, conflicts)
	if v := decide(p, m, false, "%s", whole); !v.OK {
		return v
	}
	for _, t := range committed.ReadOnlyTransactions() {
		if v := liveCheck(committed, t, conflicts); !v.OK {
			v.Reason = each + v.Reason
			return v
		}
	}
	return Verdict{OK: true}
}

// liveCheck checks read-only transaction t of the committed history
// against LIVE(t): S(t) with conflicts, P(t) without.
func liveCheck(committed *history.History, t history.TxnID, conflicts bool) Verdict {
	p, m := constraints(committed, committed.Live(t), conflicts)
	format := "P(t%[1]d) is not acyclic: read-only transaction t%[1]d is not serializable with respect to the update transactions it reads from"
	if conflicts {
		format = "S(t%d) has a cycle"
	}
	return decide(p, m, false, format, t)
}

// Serializable reports whether the committed projection of h — update
// and read-only transactions together — is conflict serializable. This
// is the global criterion the Datacycle algorithm enforces, shown by the
// paper to be unnecessarily strong for broadcast environments.
func Serializable(h *history.History) Verdict {
	return ConflictSerializable(h)
}
