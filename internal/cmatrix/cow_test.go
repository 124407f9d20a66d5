package cmatrix

import (
	"math/rand"
	"testing"
)

// randObjSet draws a non-empty set of distinct objects in [0, n).
func randObjSet(rng *rand.Rand, n int) []int {
	k := 1 + rng.Intn(min(n, 6))
	return rng.Perm(n)[:k]
}

// TestSnapshotEqualsCloneUnderRandomCommits is the copy-on-write
// aliasing guard: for random commit streams, a Snapshot taken at every
// cycle boundary is Equal to a deep Clone taken at the same instant,
// and — checked again after the whole stream has been applied — later
// Apply calls never mutate an already-taken snapshot.
func TestSnapshotEqualsCloneUnderRandomCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		live := NewMatrix(n)
		ref := NewMatrix(n) // control copy fed the identical stream
		type pair struct {
			cow, deep *Matrix
			cycle     Cycle
		}
		var snaps []pair
		cycle := Cycle(1)
		for step := 0; step < 150; step++ {
			if rng.Intn(4) == 0 { // cycle boundary
				cycle++
				snaps = append(snaps, pair{cow: live.Snapshot(), deep: live.Clone(), cycle: cycle})
			}
			rs := randObjSet(rng, n)
			var ws []int
			if rng.Intn(8) != 0 { // occasional read-only transaction
				ws = randObjSet(rng, n)
			}
			live.Apply(rs, ws, cycle)
			ref.Apply(rs, ws, cycle)

			// Fresh snapshots must match a deep clone immediately.
			if rng.Intn(10) == 0 {
				if s := live.Snapshot(); !s.Equal(live) || !s.Equal(live.Clone()) {
					t.Fatalf("trial %d step %d: fresh snapshot diverges from live matrix", trial, step)
				}
			}
		}
		// After the full stream: no snapshot may have been mutated by the
		// Apply calls that followed it.
		for i, p := range snaps {
			if !p.cow.Equal(p.deep) {
				t.Fatalf("trial %d: COW snapshot %d (cycle %d) was mutated by a later Apply:\ncow:\n%sdeep:\n%s",
					trial, i, p.cycle, p.cow, p.deep)
			}
		}
		// And the live matrix must have evolved exactly as an unshared one.
		if !live.Equal(ref) {
			t.Fatalf("trial %d: COW live matrix diverged from unshared control", trial)
		}
	}
}

// TestApplyDeltaCopiesSharedColumns guards the partial-write path:
// ApplyDelta on a matrix whose columns are shared with a snapshot must
// copy the touched column, preserving both the snapshot and the
// untouched entries of the column.
func TestApplyDeltaCopiesSharedColumns(t *testing.T) {
	m := NewMatrix(4)
	m.Apply([]int{0}, []int{1, 2}, 5)
	snap := m.Snapshot()
	before := snap.Clone()

	if err := m.ApplyDelta([]DeltaEntry{{I: 3, J: 1, Value: 9}}); err != nil {
		t.Fatal(err)
	}
	if !snap.Equal(before) {
		t.Fatalf("ApplyDelta mutated a shared snapshot:\n%s", snap)
	}
	if got := m.At(3, 1); got != 9 {
		t.Fatalf("delta entry not applied: C(3,1) = %d, want 9", got)
	}
	// The rest of the copied column must be intact.
	for i := 0; i < 3; i++ {
		if m.At(i, 1) != before.At(i, 1) {
			t.Fatalf("ApplyDelta corrupted untouched entry C(%d,1): %d != %d", i, m.At(i, 1), before.At(i, 1))
		}
	}
}

// TestSnapshotOfSnapshot makes sure snapshot chains stay consistent:
// snapshotting a snapshot is legal and equal to its source.
func TestSnapshotOfSnapshot(t *testing.T) {
	m := NewMatrix(5)
	m.Apply([]int{0, 1}, []int{2, 3}, 3)
	s1 := m.Snapshot()
	s2 := s1.Snapshot()
	m.Apply([]int{2}, []int{0}, 4)
	if !s1.Equal(s2) {
		t.Fatal("snapshot-of-snapshot diverged from its source")
	}
	if s1.Equal(m) {
		t.Fatal("live matrix should have moved past the snapshots")
	}
}

// sameStorage reports whether columns j and k of m lie in one stored
// column.
func sameStorage(m *Matrix, j, k int) bool { return sameColumn(m.Col(j), m.Col(k)) }

// TestSnapshottedCommitStoresOneColumn: after a Snapshot, a commit
// writing four objects allocates one column, and all four columns of
// its write set lie in it.
func TestSnapshottedCommitStoresOneColumn(t *testing.T) {
	m := NewMatrix(64)
	rs, ws := []int{1, 3}, []int{2, 4, 6, 8}
	sink := m.Snapshot()
	m.Apply(rs, ws, 1) // builds the matrix's column table
	snap := testing.AllocsPerRun(50, func() { sink = m.Snapshot() })
	both := testing.AllocsPerRun(50, func() {
		sink = m.Snapshot()
		m.Apply(rs, ws, 2)
	})
	if got := both - snap; got != 1 {
		t.Fatalf("a commit after a Snapshot made %v allocations, want 1 (the column)", got)
	}
	for _, j := range ws[1:] {
		if !sameStorage(m, ws[0], j) {
			t.Fatalf("columns %d and %d of one commit are stored apart", ws[0], j)
		}
	}
	_ = sink
}

// TestUnseenCommitsWriteInPlace: commits to one write set with no
// Snapshot between them rewrite their stored column in place and
// allocate nothing, as BenchmarkMatrixApply runs.
func TestUnseenCommitsWriteInPlace(t *testing.T) {
	m := NewMatrix(100)
	rs, ws := []int{1, 3, 5, 7}, []int{2, 4, 6, 8}
	c := Cycle(1)
	m.Apply(rs, ws, c)
	if allocs := testing.AllocsPerRun(100, func() { c++; m.Apply(rs, ws, c) }); allocs != 0 {
		t.Fatalf("an unseen commit made %v allocations, want 0", allocs)
	}
}

// TestPartialRewriteOfSharedColumn: a later commit, or a delta entry,
// that writes some of the objects sharing one stored column leaves the
// others' columns and every earlier snapshot as FromLog and Clone have
// them, with or without a Snapshot between the two commits.
func TestPartialRewriteOfSharedColumn(t *testing.T) {
	const n = 8
	for _, between := range []bool{false, true} {
		m := NewMatrix(n)
		log := []Commit{{ReadSet: []int{0}, WriteSet: []int{0, 5}, Cycle: 1}}
		m.Apply(log[0].ReadSet, log[0].WriteSet, 1)
		early, earlyDeep := m.Snapshot(), m.Clone()
		log = append(log, Commit{ReadSet: []int{5, 7}, WriteSet: []int{1, 2, 3, 4}, Cycle: 2})
		m.Apply(log[1].ReadSet, log[1].WriteSet, 2)
		var mid, midDeep *Matrix
		if between {
			mid, midDeep = m.Snapshot(), m.Clone()
		}
		log = append(log, Commit{ReadSet: []int{0}, WriteSet: []int{3}, Cycle: 2})
		m.Apply(log[2].ReadSet, log[2].WriteSet, 2)
		if i, j, ok := m.Diff(FromLog(n, log)); ok {
			t.Fatalf("between=%v: C(%d,%d) = %d after the partial commit, FromLog differs:\n%s", between, i, j, m.At(i, j), m)
		}
		if !sameStorage(m, 1, 4) || sameStorage(m, 1, 3) {
			t.Fatalf("between=%v: columns 1 and 4 should still share one stored column, and 3 leave it", between)
		}
		before := m.Clone()
		if err := m.ApplyDelta([]DeltaEntry{{I: 6, J: 2, Value: 9}}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				want := before.At(i, j)
				if i == 6 && j == 2 {
					want = 9
				}
				if m.At(i, j) != want {
					t.Fatalf("between=%v: delta to C(6,2) left C(%d,%d) = %d, want %d", between, i, j, m.At(i, j), want)
				}
			}
		}
		if !early.Equal(earlyDeep) || (between && !mid.Equal(midDeep)) {
			t.Fatalf("between=%v: a partial rewrite changed an earlier snapshot", between)
		}
	}
}

// TestRepeatedWriteSetKeepsSharing: a write set naming an object twice
// leaves that object's stored column once, so a column it still shares
// with an object outside the write set is never taken as emptied and
// written in place.
func TestRepeatedWriteSetKeepsSharing(t *testing.T) {
	const n = 6
	log := []Commit{
		{ReadSet: []int{0}, WriteSet: []int{1, 2}, Cycle: 1},
		{ReadSet: []int{3}, WriteSet: []int{1, 1}, Cycle: 2},
		{ReadSet: nil, WriteSet: []int{4, 2, 4}, Cycle: 3},
		{ReadSet: []int{2}, WriteSet: []int{5, 5, 5}, Cycle: 3},
	}
	m := NewMatrix(n)
	for k, c := range log {
		m.Apply(c.ReadSet, c.WriteSet, c.Cycle)
		if i, j, ok := m.Diff(FromLog(n, log[:k+1])); ok {
			t.Fatalf("after commit %d: C(%d,%d) = %d, FromLog differs:\n%s", k, i, j, m.At(i, j), m)
		}
	}
	if !sameStorage(m, 2, 4) {
		t.Fatal("columns 2 and 4 of one commit are stored apart")
	}
}
