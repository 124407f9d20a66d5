package core

import (
	"sort"

	"broadcastcc/internal/history"
)

// tFinal is the synthetic final transaction used by the polygraph
// construction for view serializability: it reads the final value of
// every object, pinning final writes.
const tFinal history.TxnID = -1

// ViewSerializable reports whether the committed projection of h is view
// serializable, using Papadimitriou's polygraph construction augmented
// with the initial transaction T0 (writes everything first) and a final
// transaction (reads everything last). The check is exact and therefore
// exponential in the worst case (view serializability is NP-complete);
// it is intended for small histories, tests and the bccheck tool.
//
// On acceptance the verdict carries a witness serial order (T0 and the
// synthetic final transaction omitted).
func ViewSerializable(h *history.History) Verdict {
	committed := h.CommittedProjection()
	p, m := constraints(committed, nil, false)
	return decide(p, m, true, vsrReason)
}

// ViewEquivalent reports whether two histories over the same committed
// transactions are view equivalent: identical reads-from relations
// (including initial reads) and identical final writers per object.
func ViewEquivalent(h1, h2 *history.History) bool {
	c1, c2 := h1.CommittedProjection(), h2.CommittedProjection()
	t1, t2 := c1.Transactions(), c2.Transactions()
	if len(t1) != len(t2) {
		return false
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			return false
		}
	}
	rfKey := func(h *history.History) []history.ReadFrom {
		rf := h.ReadsFrom()
		sort.Slice(rf, func(i, j int) bool {
			a, b := rf[i], rf[j]
			if a.Reader != b.Reader {
				return a.Reader < b.Reader
			}
			if a.Obj != b.Obj {
				return a.Obj < b.Obj
			}
			return a.Writer < b.Writer
		})
		return rf
	}
	rf1, rf2 := rfKey(c1), rfKey(c2)
	if len(rf1) != len(rf2) {
		return false
	}
	for i := range rf1 {
		if rf1[i] != rf2[i] {
			return false
		}
	}
	finals := func(h *history.History) map[string]history.TxnID {
		out := map[string]history.TxnID{}
		for _, op := range h.Ops() {
			if op.Kind == history.OpWrite {
				out[op.Obj] = op.Txn
			}
		}
		return out
	}
	f1, f2 := finals(c1), finals(c2)
	if len(f1) != len(f2) {
		return false
	}
	for obj, w := range f1 {
		if f2[obj] != w {
			return false
		}
	}
	return true
}

// SerialHistory builds the serial history that executes the given
// committed transactions of h one after another in the given order,
// each transaction's own operations keeping their relative order.
func SerialHistory(h *history.History, order []history.TxnID) *history.History {
	out := history.New()
	for _, t := range order {
		for _, op := range h.Ops() {
			if op.Txn == t {
				out.Append(op)
			}
		}
	}
	return out
}

// ViewSerializableBrute is the permutation-based reference
// implementation of view serializability, used to cross-validate the
// polygraph construction in tests. Exponential in the number of
// committed transactions.
func ViewSerializableBrute(h *history.History) bool {
	committed := h.CommittedProjection()
	txns := committed.Transactions()
	perm := make([]history.TxnID, len(txns))
	copy(perm, txns)
	var try func(k int) bool
	try = func(k int) bool {
		if k == len(perm) {
			return ViewEquivalent(committed, SerialHistory(committed, perm))
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if try(k + 1) {
				return true
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return false
	}
	return try(0)
}
