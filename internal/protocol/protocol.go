// Package protocol implements the client-side read validation of the
// paper's concurrency control algorithms (Section 3.2). A Validator
// holds one read-only transaction's read-set R_t — the (object, cycle)
// pairs of its previous reads — and decides, against the control
// snapshot of the current broadcast cycle, whether the next read may
// proceed:
//
//   - F-Matrix: ∀(ob_i, cycle) ∈ R_t: C(i, j) < cycle   (Theorem 1:
//     accepts exactly the transactions whose S(t_R) is acyclic);
//   - grouped: ∀(ob_i, cycle) ∈ R_t: MC(i, group(j)) < cycle;
//   - Datacycle: ∀(ob_i, cycle) ∈ R_t: V(i) < cycle   (serializability);
//   - R-Matrix: Datacycle's condition ∨ V(j) < c_first, where c_first is
//     the cycle of the transaction's first read.
//
// The same validators drive both the live broadcast runtime and the
// discrete-event simulator, so the performance study exercises exactly
// the code a real client would run.
package protocol

import (
	"fmt"

	"broadcastcc/internal/cmatrix"
)

// Algorithm enumerates the concurrency control algorithms evaluated in
// the paper.
type Algorithm int

// The four algorithms of Section 4 plus the grouped-matrix spectrum
// point of Section 3.2.2.
const (
	// Datacycle enforces serializability with the length-n vector
	// (Herman et al.'s scheme, the paper's baseline).
	Datacycle Algorithm = iota
	// RMatrix weakens Datacycle's condition with the first-read
	// disjunct; accepts only APPROX schedules (Theorem 9).
	RMatrix
	// FMatrix is the full n×n matrix protocol implementing APPROX.
	FMatrix
	// FMatrixNo is F-Matrix with free control information — the ideal,
	// non-realizable baseline of the evaluation. Its validation logic is
	// identical to F-Matrix; only the broadcast layout differs.
	FMatrixNo
	// Grouped is the n×g intermediate of Section 3.2.2 with the
	// conjunctive read-condition over the grouped matrix.
	Grouped
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case Datacycle:
		return "Datacycle"
	case RMatrix:
		return "R-Matrix"
	case FMatrix:
		return "F-Matrix"
	case FMatrixNo:
		return "F-Matrix-No"
	case Grouped:
		return "Grouped"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves the textual names accepted by the CLIs.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "datacycle", "Datacycle":
		return Datacycle, nil
	case "rmatrix", "r-matrix", "R-Matrix":
		return RMatrix, nil
	case "fmatrix", "f-matrix", "F-Matrix":
		return FMatrix, nil
	case "fmatrix-no", "f-matrix-no", "F-Matrix-No", "fmatrixno":
		return FMatrixNo, nil
	case "grouped", "Grouped":
		return Grouped, nil
	default:
		return 0, fmt.Errorf("protocol: unknown algorithm %q", s)
	}
}

// ReadAt is one entry of a transaction's read-set R_t: the transaction
// read Obj from the broadcast of cycle Cycle (i.e. the latest committed
// value as of the beginning of Cycle).
type ReadAt struct {
	Obj   int
	Cycle cmatrix.Cycle
}

// Snapshot is the control information of one broadcast cycle as seen by
// a client. Bound(i, j) is the value the read-condition compares against
// a prior read of object i when the transaction now reads object j:
// C(i,j) for F-Matrix, MC(i, group(j)) for grouped matrices, V(i) for
// the one-partition vector. *cmatrix.Matrix, *cmatrix.Vector and
// *cmatrix.Grouped implement it directly.
type Snapshot interface {
	// Bound returns the control entry guarding a read of object j with
	// respect to a previous read of object i.
	Bound(i, j int) cmatrix.Cycle
}

// Validator validates the reads of one read-only transaction.
// Implementations are not safe for concurrent use; each transaction
// gets its own validator.
type Validator interface {
	// TryRead reports whether reading object obj during cycle cur is
	// consistent with the transaction's previous reads, given the
	// control snapshot of cycle cur. On success the read is recorded in
	// R_t; on failure the transaction must abort (and the validator be
	// Reset before a restart).
	TryRead(snap Snapshot, obj int, cur cmatrix.Cycle) bool
	// ReadSet returns a copy of R_t, the (object, cycle) pairs read so
	// far — what an update transaction ships to the server at commit.
	ReadSet() []ReadAt
	// Reset clears the validator for a fresh transaction attempt.
	Reset()
}

// NewValidator returns the validator implementing alg's read-condition.
// Datacycle, FMatrix, FMatrixNo and Grouped share the conjunctive form
// and differ only in the snapshot they are given; RMatrix carries the
// extra first-read state for its disjunct.
func NewValidator(alg Algorithm) Validator {
	if alg == RMatrix {
		return &RMatrixValidator{}
	}
	return &ConjunctiveValidator{}
}

// violates reports whether a control bound invalidates a read performed
// at the given cycle: the read-condition accepts iff bound < cycle.
func violates(bound, cycle cmatrix.Cycle) bool {
	return bound >= cycle
}

// appendRead records one read in a validator's read set. A validator's
// first read sizes the set for the paper's four-read transaction, so a
// validator reused across transactions allocates once up to that
// length instead of once per doubling.
func appendRead[R any](reads []R, r R) []R {
	if reads == nil {
		reads = make([]R, 0, 4)
	}
	return append(reads, r)
}

// ConjunctiveValidator implements the read-condition
// ∀(ob_i, cycle) ∈ R_t: Bound(i, j) < cycle — F-Matrix with a matrix
// snapshot (Theorem 1), Datacycle with a vector snapshot, the grouped
// protocol with a grouped snapshot.
type ConjunctiveValidator struct {
	reads []ReadAt
}

// TryRead implements Validator.
func (v *ConjunctiveValidator) TryRead(snap Snapshot, obj int, cur cmatrix.Cycle) bool {
	for _, r := range v.reads {
		if violates(snap.Bound(r.Obj, obj), r.Cycle) {
			return false
		}
	}
	v.reads = appendRead(v.reads, ReadAt{Obj: obj, Cycle: cur})
	return true
}

// ReadSet implements Validator.
func (v *ConjunctiveValidator) ReadSet() []ReadAt {
	return append([]ReadAt(nil), v.reads...)
}

// Reset implements Validator.
func (v *ConjunctiveValidator) Reset() { v.reads = v.reads[:0] }

// Vector is V over N objects, At(i) the last cycle a write hit object i:
// *cmatrix.Vector, or a tuner's wire.VectorView.
type Vector interface {
	At(i int) cmatrix.Cycle
	N() int
}

// RMatrixValidator implements R-Matrix's weakened condition
// (∀(ob_i, cycle) ∈ R_t: V(i) < cycle) ∨ (V(j) < c_first): the
// transaction either sees the database state at its last read or the
// state at its first read. It requires a Vector snapshot: the disjunct
// needs V(j), the last cycle a committed write hit object j.
type RMatrixValidator struct {
	reads   []ReadAt
	first   cmatrix.Cycle
	started bool
}

// TryRead implements Validator.
func (v *RMatrixValidator) TryRead(snap Snapshot, obj int, cur cmatrix.Cycle) bool {
	vs, ok := snap.(Vector)
	if !ok {
		panic(fmt.Sprintf("protocol: R-Matrix needs a vector snapshot, got %T", snap))
	}
	if !v.started {
		v.started = true
		v.first = cur
	}
	okAll := true
	for _, r := range v.reads {
		if violates(vs.At(r.Obj), r.Cycle) {
			okAll = false
			break
		}
	}
	if !okAll && violates(vs.At(obj), v.first) {
		return false
	}
	v.reads = appendRead(v.reads, ReadAt{Obj: obj, Cycle: cur})
	return true
}

// ReadSet implements Validator.
func (v *RMatrixValidator) ReadSet() []ReadAt {
	return append([]ReadAt(nil), v.reads...)
}

// Reset implements Validator.
func (v *RMatrixValidator) Reset() {
	v.reads = v.reads[:0]
	v.started = false
	v.first = 0
}

// firstReadCycle reports the cycle of the transaction's first read and
// whether one has happened.
func (v *RMatrixValidator) firstReadCycle() (cmatrix.Cycle, bool) {
	return v.first, v.started
}
