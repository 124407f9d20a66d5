package cmatrix

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestClassRecyclingMatchesDense reads, in most commits, a class that
// dies in the same commit — depColumn hands its column out as it lies
// while install frees it — among remote applies, regroups and publishes,
// and holds the model's invariants (dense C, projected MC, reference
// counts, free list) after every commit.
func TestClassRecyclingMatchesDense(t *testing.T) {
	const n, commits = 64, 300
	for _, g := range []int{1, 4, n} {
		t.Run(fmt.Sprintf("g=%d", g), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g)))
			m := newGroupedModel(UniformPartition(n, g))
			cm, died := m.gc.cm, 0
			for c := Cycle(1); c <= commits; c++ {
				if rng.Intn(100) == 0 {
					m.regroup(randomPartition(rng, n))
				}
				commit, dying := randomCommit(rng, n, c), (*colClass)(nil)
				if j := commit.WriteSet[0]; rng.Intn(3) != 0 && cm.class[j] != nil {
					dying = cm.class[j]
					// Write every column of j's class and read j: the class
					// dies in the commit that reads it.
					for k, cls := range cm.class {
						if cls == dying && k != j && len(commit.WriteSet) < 8 {
							commit.WriteSet = append(commit.WriteSet, k)
						}
					}
					commit.ReadSet = append(commit.ReadSet, j)
				}
				m.apply(commit, rng.Intn(10) == 0)
				if dying != nil && dying.refs == 0 {
					died++
				}
				if rng.Intn(5) == 0 {
					m.publish()
				}
				m.check(t, "commit %d", c)
			}
			if died < commits/4 {
				t.Fatalf("only %d of %d commits read a class they killed", died, commits)
			}
			m.checkPublished(t, "end of stream")
		})
	}
}

// TestGroupedRecyclingMatchesRebuild is the counted-publication property
// test: over random commit streams and partitions (with regroups), and
// random orders in which holders take and let go of publications — some
// never — every snapshot still held reads as GroupedOf the FromLog
// rebuild of the log it was published after, while the control keeps
// copying published columns into the storage released ones left.
func TestGroupedRecyclingMatchesRebuild(t *testing.T) {
	type held struct {
		got, want *Grouped
		refs      int // counts this test holds; -1: held for good
	}
	rng := rand.New(rand.NewSource(11))
	reused := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		part := randomPartition(rng, n)
		gc := NewGroupedControl(part)
		var log []Commit
		var holds []*held
		for c := Cycle(1); c <= 150; c++ {
			switch r := rng.Intn(40); {
			case r == 0:
				part = randomPartition(rng, n)
				gc.Regroup(part)
			case r < 16:
				h := &held{got: gc.Grouped(), want: GroupedOf(FromLog(n, log), part), refs: 1}
				for k := rng.Intn(3); k > 0; k-- {
					h.got.Retain()
					h.refs++
				}
				if rng.Intn(12) == 0 {
					h.refs = -1
				}
				holds = append(holds, h)
			}
			holds = slices.DeleteFunc(holds, func(h *held) bool {
				if h.refs > 0 && rng.Intn(2) == 0 {
					h.got.Release()
					h.refs--
				}
				return h.refs == 0
			})
			spares := make([]*SparseEntry, len(gc.groups))
			for s := range gc.groups {
				spares[s] = storageOf(gc.groups[s].spare)
			}
			cm := randomCommit(rng, n, c)
			log = append(log, cm)
			gc.Apply(cm.ReadSet, cm.WriteSet, cm.Cycle)
			for s := range gc.groups {
				if p := storageOf(gc.groups[s].mc); p != nil && p == spares[s] {
					reused++
				}
			}
			for k, h := range holds {
				if !h.got.Equal(h.want) {
					t.Fatalf("trial %d commit %d: held snapshot %d of %d no longer reads as the rebuild of its prefix", trial, c, k, len(holds))
				}
			}
		}
		if live := gc.Grouped(); !live.Equal(GroupedOf(FromLog(n, log), part)) {
			t.Fatalf("trial %d: live MC diverged from the rebuild", trial)
		}
	}
	if reused < 500 {
		t.Fatalf("only %d commits wrote into a recycled column", reused)
	}
}

// TestGroupedReleasedPublishAllocs pins the recycled commit path: with
// each publication released before the next commit, as a server's cycle
// loop does, the first commit after a publish copies each group it
// writes into the storage the group left one publication back, so a
// cycle allocates the snapshot and no column bytes.
func TestGroupedReleasedPublishAllocs(t *testing.T) {
	gc := heatedGrouped(rand.New(rand.NewSource(1)))
	c := Cycle(5000)
	publish := func() { gc.Grouped().Release() }
	cycle := func() {
		publish()
		c++
		gc.Apply([]int{3, 200}, []int{0, 100}, c) // groups 0 and 3
	}
	cycle()
	cycle() // groups 0 and 3 have left a spare
	bytes := func(f func()) uint64 {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	// The snapshot's bytes vary by a few per run: its count comes from a
	// block shared by 64 publications. One column here is 8 KiB.
	if got, snap := bytes(cycle), bytes(publish); got > snap+64 {
		t.Fatalf("publish + release + first commit allocates %d bytes per cycle, the snapshot alone %d: want no column bytes", got, snap)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 2 {
		t.Fatalf("publish + release + first commit allocates %.0f objects per run, want the snapshot's 2", allocs)
	}
}

// TestGroupedReleaseCounts: a publication released past its last count
// panics; a decoded or projected Grouped counts nothing, so Retain and
// Release on it do nothing however they pair.
func TestGroupedReleaseCounts(t *testing.T) {
	pub := NewGroupedControl(UniformPartition(4, 2)).Grouped()
	pub.Retain()
	pub.Release()
	pub.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("releasing a publication past zero did not panic")
			}
		}()
		pub.Release()
	}()
	decoded, err := GroupedFromRows(UniformPartition(2, 1), [][]Cycle{{3}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Grouped{decoded, GroupedOf(NewMatrix(2), UniformPartition(2, 2))} {
		g.Release()
		g.Release()
		g.Retain()
	}
	if decoded.At(0, 0) != 3 {
		t.Fatalf("decoded MC(0,0) = %d, want 3", decoded.At(0, 0))
	}
}

// TestGroupedRecycledReadersRace is the counted ownership rule under the
// race detector: two readers each take a count on every publication,
// keep the last few (0–2, varying) and let go of the rest from their own
// goroutines, while the committer keeps writing columns into storage
// released publications left. A write into storage a reader still holds
// is a data race here and a mismatch against the snapshot's reference
// without -race.
func TestGroupedRecycledReadersRace(t *testing.T) {
	const n, g, cycles = 64, 4, 300
	m := newGroupedModel(UniformPartition(n, g))
	rng := rand.New(rand.NewSource(9))
	var chans [2]chan publishedGrouped
	done := make(chan struct{}, len(chans))
	for r := range chans {
		chans[r] = make(chan publishedGrouped)
		go func(in <-chan publishedGrouped, seed int64) {
			defer func() { done <- struct{}{} }()
			keep := rand.New(rand.NewSource(seed))
			var held []publishedGrouped
			failed := false
			for p := range in { // drained to the end, so the committer never blocks
				held = append(held, p)
				for k, q := range held {
					if !failed && !q.got.Equal(q.want) {
						t.Errorf("a held snapshot changed %d publications later", len(held)-1-k)
						failed = true
					}
				}
				for len(held) > keep.Intn(3) {
					held[0].got.Release()
					held = held[1:]
				}
			}
		}(chans[r], int64(r))
	}
	reused := 0
	for c := Cycle(1); c <= cycles; c++ {
		spares := make([]*SparseEntry, g)
		for s := range m.gc.groups {
			spares[s] = storageOf(m.gc.groups[s].spare)
		}
		for k := 0; k < 4; k++ {
			m.apply(randomCommit(rng, n, c), false)
		}
		for s := range m.gc.groups {
			if p := storageOf(m.gc.groups[s].mc); p != nil && p == spares[s] {
				reused++
			}
		}
		p := publishedGrouped{m.gc.Grouped(), GroupedOf(m.dense, m.part)}
		for _, ch := range chans {
			p.got.Retain()
			ch <- p
		}
		p.got.Release()
	}
	for _, ch := range chans {
		close(ch)
	}
	for range chans {
		<-done
	}
	if reused < cycles/4 {
		t.Fatalf("only %d column copies in %d cycles went into recycled storage", reused, cycles)
	}
}

// storageOf identifies the array col lies in (nil when it has none).
func storageOf(col []SparseEntry) *SparseEntry {
	if cap(col) == 0 {
		return nil
	}
	return &col[:1][0]
}
