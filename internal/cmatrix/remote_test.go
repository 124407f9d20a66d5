package cmatrix

import (
	"math/rand"
	"testing"
)

// TestApplyRemoteDominatesExact drives a mixed local/remote commit
// stream into every representation alongside an exact dense matrix fed
// the same stream with full read visibility, and asserts the
// conservative state dominates the exact one pointwise — the soundness
// property that makes per-shard validation reject everything the global
// F-Matrix rejects.
func TestApplyRemoteDominatesExact(t *testing.T) {
	const n, commits = 12, 200
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		exact := NewMatrix(n)
		dense := NewDenseControl(n)
		exactG := NewGroupedControl(UniformPartition(n, n))
		grouped := NewGroupedControl(UniformPartition(n, 4))
		anyRemote := false
		for c := 1; c <= commits; c++ {
			cm := randomCommit(rng, n, Cycle(c))
			rs, ws := cm.ReadSet, cm.WriteSet
			exact.Apply(rs, ws, Cycle(c))
			if rng.Intn(3) == 0 {
				anyRemote = true
				dense.ApplyRemote(ws, Cycle(c))
				exactG.ApplyRemote(ws, Cycle(c))
				grouped.ApplyRemote(ws, Cycle(c))
			} else {
				dense.Apply(rs, ws, Cycle(c))
				exactG.Apply(rs, ws, Cycle(c))
				grouped.Apply(rs, ws, Cycle(c))
			}
		}
		if !anyRemote {
			t.Fatalf("seed %d: stream drew no remote commits", seed)
		}
		ds, es, gs := dense.Snapshot(), exactG.Snapshot(), grouped.Snapshot()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := exact.At(i, j)
				if got := ds.Bound(i, j); got < want {
					t.Fatalf("seed %d: dense Bound(%d,%d)=%d < exact %d", seed, i, j, got, want)
				}
				if got := es.Bound(i, j); got < want {
					t.Fatalf("seed %d: singleton-group Bound(%d,%d)=%d < exact %d", seed, i, j, got, want)
				}
				if got := gs.Bound(i, j); got < want {
					t.Fatalf("seed %d: grouped Bound(%d,%d)=%d < exact %d", seed, i, j, got, want)
				}
				if ds.Bound(i, j) != es.Bound(i, j) {
					t.Fatalf("seed %d: dense %d != singleton-group %d at (%d,%d)",
						seed, ds.Bound(i, j), es.Bound(i, j), i, j)
				}
			}
		}
	}
}

// TestApplyRemoteDiagonalColumn pins the rule itself: after a remote
// apply, every written column holds commitCycle at write-set rows and
// the row's pre-apply diagonal (its last-write cycle) everywhere else —
// in particular zero at rows of never-written objects — and unwritten
// columns are untouched.
func TestApplyRemoteDiagonalColumn(t *testing.T) {
	const n = 6
	dense := NewDenseControl(n)
	exactG := NewGroupedControl(UniformPartition(n, n))
	dense.Apply([]int{1}, []int{0, 2}, 3)
	exactG.Apply([]int{1}, []int{0, 2}, 3)
	before := make([]Cycle, n)
	for i := range before {
		before[i] = dense.Matrix().At(i, 2)
	}
	dense.ApplyRemote([]int{4, 4, 1}, 7) // duplicates must collapse
	exactG.ApplyRemote([]int{4, 4, 1}, 7)
	// Diagonals before the remote apply: objects 0 and 2 last written at
	// cycle 3, everything else never written.
	want := []Cycle{3, 7, 3, 0, 7, 0}
	for i := 0; i < n; i++ {
		for _, j := range []int{1, 4} {
			if got := dense.Matrix().At(i, j); got != want[i] {
				t.Fatalf("dense C(%d,%d)=%d, want %d", i, j, got, want[i])
			}
			if got := exactG.At(i, j); got != want[i] {
				t.Fatalf("singleton-group C(%d,%d)=%d, want %d", i, j, got, want[i])
			}
			if got := exactG.Snapshot().Bound(i, j); got != want[i] {
				t.Fatalf("singleton-group published C(%d,%d)=%d, want %d", i, j, got, want[i])
			}
		}
		if got := dense.Matrix().At(i, 2); got != before[i] {
			t.Fatalf("unwritten column changed: C(%d,2)=%d, want %d", i, got, before[i])
		}
	}
}

// TestApplyRemoteVectorCoincides: the vector ignores read sets, so the
// remote rule is exactly Apply and sharding costs R-Matrix/Datacycle
// clients nothing.
func TestApplyRemoteVectorCoincides(t *testing.T) {
	const n = 8
	a, b := NewVectorControl(n), NewVectorControl(n)
	rng := rand.New(rand.NewSource(7))
	for c := 1; c <= 100; c++ {
		cm := randomCommit(rng, n, Cycle(c))
		rs, ws := cm.ReadSet, cm.WriteSet
		a.Apply(rs, ws, Cycle(c))
		b.ApplyRemote(ws, Cycle(c))
	}
	for i := 0; i < n; i++ {
		if a.Vector().At(i) != b.Vector().At(i) {
			t.Fatalf("vector diverged at %d: %d vs %d", i, a.Vector().At(i), b.Vector().At(i))
		}
	}
}

// TestApplyRemoteSnapshotStable: snapshots taken before a remote apply
// must not observe it (copy-on-write / class-pointer stability).
func TestApplyRemoteSnapshotStable(t *testing.T) {
	const n = 5
	dense := NewDenseControl(n)
	exactG := NewGroupedControl(UniformPartition(n, n))
	grouped := NewGroupedControl(UniformPartition(n, 2))
	for _, ctl := range []Control{dense, exactG, grouped} {
		ctl.Apply([]int{0}, []int{1, 3}, 2)
		snap := ctl.Snapshot()
		want := make([][]Cycle, n)
		for i := range want {
			want[i] = make([]Cycle, n)
			for j := 0; j < n; j++ {
				want[i][j] = snap.Bound(i, j)
			}
		}
		ctl.ApplyRemote([]int{1, 2}, 9)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := snap.Bound(i, j); got != want[i][j] {
					t.Fatalf("%T: snapshot mutated at (%d,%d): %d -> %d", ctl, i, j, want[i][j], got)
				}
			}
		}
		if got := ctl.Snapshot().Bound(1, 2); got != 9 {
			t.Fatalf("%T: live state missed remote apply: Bound(1,2)=%d, want 9", ctl, got)
		}
	}
}
