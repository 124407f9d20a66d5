package protocol

import (
	"fmt"

	"broadcastcc/internal/cmatrix"
)

// This file implements the validation machinery behind the paper's
// weak-currency caching extension (Section 3.3): clients may serve reads
// from locally cached items — logically reads "at" the cycle the item
// was cached — as long as the cached control-matrix columns are kept
// alongside the values. Because cached reads can be *older* than reads
// already performed off the air, the read-condition must be checked in
// both directions between every pair of reads; with monotonically
// non-decreasing read cycles the backward direction is vacuous and the
// validator reduces exactly to the standard F-Matrix condition.

// ColumnSnapshot is the control information retained for a single
// cached object under F-Matrix: column j of the C matrix as of the cycle
// the object was cached. Bound is only defined for reads of that object.
type ColumnSnapshot struct {
	Obj int
	Col []cmatrix.Cycle // Col[i] = C(i, Obj) at the caching cycle
}

// Bound implements Snapshot for j == Obj only.
func (s ColumnSnapshot) Bound(i, j int) cmatrix.Cycle {
	if j != s.Obj {
		panic(fmt.Sprintf("protocol: column snapshot for object %d asked about object %d", s.Obj, j))
	}
	return s.Col[i]
}

// ColumnOf extracts object obj's control slice from any cycle snapshot
// over an n-object database: the guard values Bound(i, obj) for every
// i. This is exactly the per-entry control a weak-currency cache
// retains (and a persistent cache store writes) — one matrix column
// under F-Matrix, the vector's image under the vector protocols.
func ColumnOf(snap Snapshot, obj, n int) ColumnSnapshot {
	return ColumnSnapshot{Obj: obj, Col: AppendColumn(make([]cmatrix.Cycle, 0, n), snap, obj, n)}
}

// AppendColumn appends ColumnOf(snap, obj, n)'s entries to buf and
// returns the extended slice, copying them straight out of the snapshot
// where it stores columns: an in-process matrix, or a tuner's matrix view
// (a Col(j, buf) method that appends column j, as wire.CycleView has);
// any other snapshot is asked entry by entry. A grouped or vector view
// has no column to copy and must not be passed.
func AppendColumn(buf []cmatrix.Cycle, snap Snapshot, obj, n int) []cmatrix.Cycle {
	switch s := snap.(type) {
	case *cmatrix.Matrix:
		return append(buf, s.Col(obj)...)
	case interface {
		Col(j int, buf []cmatrix.Cycle) []cmatrix.Cycle
	}:
		return s.Col(obj, buf)
	}
	for i := 0; i < n; i++ {
		buf = append(buf, snap.Bound(i, obj))
	}
	return buf
}

// SnapshotValidator validates reads that may be out of cycle order
// (mixing cached and on-air reads). Every read carries the control
// snapshot of its own cycle; a new read of obj at cycle c is allowed iff
// for every prior read (ob_i, c_i, snap_i):
//
//	snap.Bound(i, obj) < c_i   — obj's value does not depend on a
//	                             transaction that overwrote ob_i after
//	                             it was read, and
//	snap_i.Bound(obj, i) < c   — ob_i's value does not depend on a
//	                             transaction that overwrote obj at or
//	                             after cycle c.
//
// With non-decreasing cycles the second condition always holds (every
// entry of an older snapshot is below the newer cycle), so this
// validator accepts exactly what ConjunctiveValidator accepts; with
// cached (older) reads it remains exactly APPROX (acyclicity of
// S(t_R)).
//
// A read whose snapshot is Pinned holds it until Reset.
type SnapshotValidator struct {
	reads []recordedRead
}

// Pinned is a Snapshot read in place from storage that is recycled once
// nothing holds it — a tuner's wire.CycleView over a received frame, a
// cache entry's qcache.Block: whoever keeps it past the read holds a
// count with Retain and lets go with Release.
type Pinned interface {
	Snapshot
	Retain()
	Release()
}

type recordedRead struct {
	obj   int
	cycle cmatrix.Cycle
	snap  Snapshot
}

// TryRead validates and records a read of obj at cycle cur whose control
// snapshot is snap. The snapshot is retained for validating later,
// possibly older, reads; for F-Matrix a ColumnSnapshot of column obj is
// sufficient.
func (v *SnapshotValidator) TryRead(snap Snapshot, obj int, cur cmatrix.Cycle) bool {
	for _, r := range v.reads {
		if violates(snap.Bound(r.obj, obj), r.cycle) {
			return false
		}
		if violates(r.snap.Bound(obj, r.obj), cur) {
			return false
		}
	}
	if p, ok := snap.(Pinned); ok {
		p.Retain()
	}
	v.reads = appendRead(v.reads, recordedRead{obj: obj, cycle: cur, snap: snap})
	return true
}

// ReadSet returns R_t as (object, cycle) pairs.
func (v *SnapshotValidator) ReadSet() []ReadAt {
	out := make([]ReadAt, len(v.reads))
	for i, r := range v.reads {
		out[i] = ReadAt{Obj: r.obj, Cycle: r.cycle}
	}
	return out
}

// Reset clears the validator for a fresh transaction attempt. The old
// reads' snapshots are dropped, not just sliced off, and pinned ones
// released: a reused validator must not pin the frames and columns of a
// finished transaction.
func (v *SnapshotValidator) Reset() {
	for _, r := range v.reads {
		if p, ok := r.snap.(Pinned); ok {
			p.Release()
		}
	}
	clear(v.reads)
	v.reads = v.reads[:0]
}
