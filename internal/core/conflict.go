package core

import (
	"fmt"

	"broadcastcc/internal/graph"
	"broadcastcc/internal/history"
)

// Verdict is the outcome of a correctness check, with enough detail to
// explain rejections (the offending cycle, if one was found) and
// acceptances (a serialization order, when one is implied).
type Verdict struct {
	OK bool
	// Order is a serialization order of the checked transactions when
	// the check accepts and one is defined (conflict serializability,
	// view serializability).
	Order []history.TxnID
	// Reason describes why the history was rejected; empty when OK.
	Reason string
	// Cycle names the transactions on a violating cycle, when the
	// rejection is due to one.
	Cycle []history.TxnID
}

func reject(format string, args ...any) Verdict {
	return Verdict{Reason: fmt.Sprintf(format, args...)}
}

// The rejection reasons of the two whole-history checks.
const (
	csrReason = "serialization graph has a cycle"
	vsrReason = "polygraph is not acyclic: no view-equivalent serial order exists"
)

// decide turns the constraint graph p over m into a verdict. An
// acceptance carries, when ordered, the serial order p admits with T0
// and tFinal dropped. A rejection carries the Reason format describes
// and a cycle of p's fixed arcs, when they have one.
func decide(p *graph.Polygraph, m *NodeMap, ordered bool, format string, args ...any) Verdict {
	order, ok := p.Order()
	if !ok {
		v := reject(format, args...)
		for _, i := range p.Base().FindCycle() {
			v.Cycle = append(v.Cycle, m.ID(i))
		}
		return v
	}
	v := Verdict{OK: true}
	for _, i := range order {
		if id := m.ID(i); ordered && id != history.T0 && id != tFinal {
			v.Order = append(v.Order, id)
		}
	}
	return v
}

// ConflictSerializable reports whether the committed projection of h is
// conflict serializable, via serialization-graph testing. On acceptance
// the verdict carries a witness serial order.
func ConflictSerializable(h *history.History) Verdict {
	committed := h.CommittedProjection()
	p, m := constraints(committed, nil, true)
	return decide(p, m, true, csrReason)
}

// SerializableReadOnly reports whether read-only transaction t is
// conflict serializable with respect to the transactions it directly or
// indirectly reads from in the committed projection of h — i.e. whether
// S_H(t) is acyclic (Definition 9). This is APPROX condition 2 for a
// single transaction.
func SerializableReadOnly(h *history.History, t history.TxnID) Verdict {
	return liveCheck(h.CommittedProjection(), t, true)
}
