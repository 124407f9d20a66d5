// Package history models transaction execution histories: totally
// ordered sequences of read, write, commit and abort events, together
// with the derived structure the paper's correctness criteria are
// defined over — the reads-from relation, LIVE sets (transitive
// reads-from closure), update sub-histories and committed projections.
//
// Histories can be built programmatically or parsed from the compact
// textual notation used throughout the paper, e.g.
//
//	r1(IBM) w2(IBM) c2 r3(IBM) r3(Sun) w4(Sun) c4 r1(Sun) c1 c3
//
// Transaction ids are positive integers; id 0 is reserved for the
// paper's initial transaction t0, which is deemed to have written every
// object before the history begins.
package history

import (
	"fmt"
	"sort"
	"strings"
)

// TxnID identifies a transaction. T0 is the implicit initial transaction.
type TxnID int

// T0 is the initial transaction that writes every object before the
// history starts (Appendix A assumption).
const T0 TxnID = 0

// OpKind enumerates the event kinds of a history.
type OpKind int

// Event kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpCommit
	OpAbort
)

// String returns the single-letter notation for the kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "r"
	case OpWrite:
		return "w"
	case OpCommit:
		return "c"
	case OpAbort:
		return "a"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one event of a history. Obj is empty for commit/abort events.
type Op struct {
	Kind OpKind
	Txn  TxnID
	Obj  string
}

// String renders the op in the paper's notation, e.g. "r1(IBM)" or "c2".
func (o Op) String() string {
	switch o.Kind {
	case OpRead, OpWrite:
		return fmt.Sprintf("%s%d(%s)", o.Kind, o.Txn, o.Obj)
	default:
		return fmt.Sprintf("%s%d", o.Kind, o.Txn)
	}
}

// Read constructs a read event.
func Read(t TxnID, obj string) Op { return Op{Kind: OpRead, Txn: t, Obj: obj} }

// Write constructs a write event.
func Write(t TxnID, obj string) Op { return Op{Kind: OpWrite, Txn: t, Obj: obj} }

// Commit constructs a commit event.
func Commit(t TxnID) Op { return Op{Kind: OpCommit, Txn: t} }

// Abort constructs an abort event.
func Abort(t TxnID) Op { return Op{Kind: OpAbort, Txn: t} }

// History is a totally ordered sequence of events. The zero value is an
// empty history ready for use.
type History struct {
	ops []Op
}

// New returns a history holding the given events.
func New(ops ...Op) *History {
	h := &History{}
	for _, op := range ops {
		h.Append(op)
	}
	return h
}

// Append adds an event at the end of the history.
// It panics on a non-positive transaction id: T0 is implicit and must
// not appear explicitly.
func (h *History) Append(op Op) {
	if op.Txn <= 0 {
		panic(fmt.Sprintf("history: transaction id %d must be positive", op.Txn))
	}
	h.ops = append(h.ops, op)
}

// Len reports the number of events.
func (h *History) Len() int { return len(h.ops) }

// Ops returns a copy of the event sequence.
func (h *History) Ops() []Op { return append([]Op(nil), h.ops...) }

// At returns the i-th event.
func (h *History) At(i int) Op { return h.ops[i] }

// Clone returns a deep copy of h.
func (h *History) Clone() *History { return &History{ops: h.Ops()} }

// String renders the history in the paper's notation.
func (h *History) String() string {
	parts := make([]string, len(h.ops))
	for i, op := range h.ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}

// Transactions returns the distinct transaction ids appearing in the
// history, in ascending order (T0 is never included).
func (h *History) Transactions() []TxnID {
	seen := map[TxnID]bool{}
	for _, op := range h.ops {
		seen[op.Txn] = true
	}
	out := make([]TxnID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Status is a transaction's termination state within a history.
type Status int

// Termination states.
const (
	StatusActive Status = iota // no commit or abort event
	StatusCommitted
	StatusAborted
)

// statusOf reports the termination state of t in h.
func (h *History) statusOf(t TxnID) Status {
	for _, op := range h.ops {
		if op.Txn != t {
			continue
		}
		switch op.Kind {
		case OpCommit:
			return StatusCommitted
		case OpAbort:
			return StatusAborted
		}
	}
	return StatusActive
}

// Statuses computes the termination state of every transaction in one
// scan.
func (h *History) Statuses() map[TxnID]Status {
	out := map[TxnID]Status{}
	for _, op := range h.ops {
		if _, seen := out[op.Txn]; !seen {
			out[op.Txn] = StatusActive
		}
		switch op.Kind {
		case OpCommit:
			if out[op.Txn] == StatusActive {
				out[op.Txn] = StatusCommitted
			}
		case OpAbort:
			if out[op.Txn] == StatusActive {
				out[op.Txn] = StatusAborted
			}
		}
	}
	return out
}

// IsReadOnly reports whether t performs no write in h.
// T0 is by definition an update transaction.
func (h *History) IsReadOnly(t TxnID) bool {
	if t == T0 {
		return false
	}
	for _, op := range h.ops {
		if op.Txn == t && op.Kind == OpWrite {
			return false
		}
	}
	return true
}

// ReadOnlyTransactions returns the ids of read-only transactions.
func (h *History) ReadOnlyTransactions() []TxnID {
	var out []TxnID
	for _, t := range h.Transactions() {
		if h.IsReadOnly(t) {
			out = append(out, t)
		}
	}
	return out
}

// Objects returns the distinct object names read or written, sorted.
func (h *History) Objects() []string {
	seen := map[string]bool{}
	for _, op := range h.ops {
		if op.Kind == OpRead || op.Kind == OpWrite {
			seen[op.Obj] = true
		}
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Project returns the sub-history containing only the events of
// transactions for which keep returns true, preserving order.
func (h *History) Project(keep func(TxnID) bool) *History {
	out := &History{}
	for _, op := range h.ops {
		if keep(op.Txn) {
			out.ops = append(out.ops, op)
		}
	}
	return out
}

// CommittedProjection returns the sub-history of committed transactions.
func (h *History) CommittedProjection() *History {
	status := h.Statuses()
	return h.Project(func(t TxnID) bool { return status[t] == StatusCommitted })
}

// UpdateSubhistory returns H_update: all and only the operations of
// transactions that perform a write in h (Section 3.1).
func (h *History) UpdateSubhistory() *History {
	writers := map[TxnID]bool{}
	for _, op := range h.ops {
		if op.Kind == OpWrite {
			writers[op.Txn] = true
		}
	}
	return h.Project(func(t TxnID) bool { return writers[t] })
}

// ReadFrom records that Reader read Obj from Writer (Writer is T0 when
// no write on Obj precedes the read).
type ReadFrom struct {
	Reader TxnID
	Obj    string
	Writer TxnID
}

// ReadsFrom computes the reads-from relation of h: each read reads the
// value installed by the last preceding write on the same object, or T0
// when there is none. Events of aborted transactions participate as they
// appear; call CommittedProjection first to reason about the committed
// history only.
func (h *History) ReadsFrom() []ReadFrom {
	lastWriter := map[string]TxnID{}
	var out []ReadFrom
	for _, op := range h.ops {
		switch op.Kind {
		case OpWrite:
			lastWriter[op.Obj] = op.Txn
		case OpRead:
			w, ok := lastWriter[op.Obj]
			if !ok {
				w = T0
			}
			out = append(out, ReadFrom{Reader: op.Txn, Obj: op.Obj, Writer: w})
		}
	}
	return out
}

// Live computes LIVE_H(t): the minimal set containing t and closed under
// "reads from" — if t' is in the set and t' reads from t” in h, then
// t” is in the set. T0 is included when some member reads an initial
// value (Section 3.1).
func (h *History) Live(t TxnID) map[TxnID]bool {
	rf := h.ReadsFrom()
	readsFrom := map[TxnID][]TxnID{}
	for _, r := range rf {
		readsFrom[r.Reader] = append(readsFrom[r.Reader], r.Writer)
	}
	live := map[TxnID]bool{t: true}
	stack := []TxnID{t}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range readsFrom[x] {
			if !live[w] {
				live[w] = true
				stack = append(stack, w)
			}
		}
	}
	return live
}

// Writers returns the transactions that write obj, in first-write order.
func (h *History) Writers(obj string) []TxnID {
	var out []TxnID
	seen := map[TxnID]bool{}
	for _, op := range h.ops {
		if op.Kind == OpWrite && op.Obj == obj && !seen[op.Txn] {
			seen[op.Txn] = true
			out = append(out, op.Txn)
		}
	}
	return out
}

// ReadSet returns the distinct objects read by t, sorted.
func (h *History) ReadSet(t TxnID) []string {
	seen := map[string]bool{}
	for _, op := range h.ops {
		if op.Txn == t && op.Kind == OpRead {
			seen[op.Obj] = true
		}
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// WriteSet returns the distinct objects written by t, sorted.
func (h *History) WriteSet(t TxnID) []string {
	seen := map[string]bool{}
	for _, op := range h.ops {
		if op.Txn == t && op.Kind == OpWrite {
			seen[op.Obj] = true
		}
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}
