package cmatrix

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// randomCommit draws a random commit over n objects: distinct read and
// write sets, write set non-empty.
func randomCommit(rng *rand.Rand, n int, cycle Cycle) Commit {
	pick := func(k int) []int {
		if k > n {
			k = n
		}
		perm := rng.Perm(n)
		return append([]int(nil), perm[:k]...)
	}
	c := Commit{Cycle: cycle, WriteSet: pick(1 + rng.Intn(3))}
	if rng.Float64() < 0.8 {
		c.ReadSet = pick(rng.Intn(4))
	}
	return c
}

func randomPartition(rng *rand.Rand, n int) *Partition {
	g := 1 + rng.Intn(n)
	switch rng.Intn(3) {
	case 0:
		return UniformPartition(n, g)
	case 1:
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		return HeatPartition(w, g)
	default:
		of := make([]int, n)
		for j := range of {
			of[j] = rng.Intn(g)
		}
		// Group ids need not be dense for the invariant; NewPartition
		// only requires them in range.
		return NewPartition(g, of)
	}
}

// exactC materializes the exact C behind a grouped control through At
// (small-n tests only).
func exactC(g *GroupedControl) *Matrix {
	m := NewMatrix(g.N())
	for j, col := range m.cols {
		for i := range col {
			col[i] = g.At(i, j)
		}
	}
	return m
}

// TestSingletonGroupedMatchesDense drives the grouped control over
// singleton groups — the exact-C floor of the grouped figure — and the
// dense Theorem 2 matrix with identical random commit streams, and
// requires every entry to agree after every commit.
func TestSingletonGroupedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		dense := NewMatrix(n)
		exact := NewGroupedControl(UniformPartition(n, n))
		for c := Cycle(1); c <= 30; c++ {
			cm := randomCommit(rng, n, c)
			dense.Apply(cm.ReadSet, cm.WriteSet, c)
			exact.Apply(cm.ReadSet, cm.WriteSet, c)
			if !exactC(exact).Equal(dense) {
				t.Fatalf("trial %d cycle %d: singleton-group C diverged from dense\ngot:\n%swant:\n%s",
					trial, c, exactC(exact), dense)
			}
		}
		// Snapshots publish C itself and must be stable under later applies.
		snap := exact.Snapshot()
		ref := exactC(exact)
		extra := randomCommit(rng, n, 31)
		exact.Apply(extra.ReadSet, extra.WriteSet, 31)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if snap.Bound(i, j) != ref.At(i, j) {
					t.Fatalf("trial %d: snapshot entry (%d,%d) is %d, want C = %d before the later apply",
						trial, i, j, snap.Bound(i, j), ref.At(i, j))
				}
			}
		}
	}
}

// groupedModel drives a GroupedControl and the dense Theorem 2 matrix
// with the same operations. GroupedOf over the dense matrix is the
// from-scratch oracle; every published *Grouped is kept beside the
// oracle's answer at that instant, so a later in-place write through a
// column a snapshot still aliases shows up in checkPublished. peak is
// the most live C-column classes seen after any apply.
type groupedModel struct {
	gc    *GroupedControl
	dense *Matrix
	part  *Partition
	pubs  []publishedGrouped
	peak  int
}

type publishedGrouped struct{ got, want *Grouped }

func newGroupedModel(p *Partition) *groupedModel {
	return &groupedModel{gc: NewGroupedControl(p), dense: NewMatrix(p.N()), part: p}
}

func (m *groupedModel) apply(cm Commit, remote bool) {
	if remote {
		m.dense.ApplyRemote(cm.WriteSet, cm.Cycle)
		m.gc.ApplyRemote(cm.WriteSet, cm.Cycle)
	} else {
		m.dense.Apply(cm.ReadSet, cm.WriteSet, cm.Cycle)
		m.gc.Apply(cm.ReadSet, cm.WriteSet, cm.Cycle)
	}
	m.peak = max(m.peak, len(m.classRefs()))
}

// classRefs counts, per live class, the columns of C sharing it.
func (m *groupedModel) classRefs() map[*colClass]int {
	refs := map[*colClass]int{}
	for _, cls := range m.gc.cm.class {
		if cls != nil {
			refs[cls]++
		}
	}
	return refs
}

func (m *groupedModel) regroup(p *Partition) {
	m.gc.Regroup(p)
	m.part = p
}

func (m *groupedModel) publish() {
	m.pubs = append(m.pubs, publishedGrouped{m.gc.Grouped(), GroupedOf(m.dense, m.part)})
}

// check requires the class-shared C to equal the dense matrix, the live
// MC to equal its projection and the private counts to equal a recount
// from it: cnt[s][k] is the number of group s's columns attaining
// mc[s][k], and no stored row has count 0 or value 0. It reads the live
// columns directly — publishing here would mark them shared and keep the
// in-place write path from ever running. Recycled classes: each class's
// refs is the number of columns sharing it, no live class is on the free
// list, and the free list never passes the peak live count + 1.
func (m *groupedModel) check(t testing.TB, whenFormat string, whenArgs ...any) {
	t.Helper()
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf(fmt.Sprintf(whenFormat, whenArgs...)+": "+format, args...)
	}
	gc, n := m.gc, m.part.N()
	if !exactC(gc).Equal(m.dense) {
		fatalf("class-shared C diverged from the dense matrix")
	}
	refs := m.classRefs()
	for cls, r := range refs {
		if int(cls.refs) != r {
			fatalf("a class shared by %d columns counts %d", r, cls.refs)
		}
	}
	for _, cls := range gc.cm.free {
		if refs[cls] > 0 {
			fatalf("a class of %d columns is on the free list", refs[cls])
		}
	}
	if len(gc.cm.free) > m.peak+1 {
		fatalf("%d free classes, peak live count %d", len(gc.cm.free), m.peak)
	}
	want := GroupedOf(m.dense, m.part)
	if !m.live().Equal(want) {
		for i := 0; i < n; i++ {
			for s := 0; s < m.part.Groups(); s++ {
				if gc.MC(i, s) != want.At(i, s) {
					fatalf("MC(%d,%d) = %d, projection says %d", i, s, gc.MC(i, s), want.At(i, s))
				}
			}
		}
		fatalf("grouped Equal disagrees with entrywise comparison")
	}
	for s, gs := range gc.groups {
		if len(gs.cnt) != len(gs.mc) {
			fatalf("group %d stores %d rows but %d counts", s, len(gs.mc), len(gs.cnt))
		}
		for k, e := range gs.mc {
			recount := 0
			for j := 0; j < n; j++ {
				if m.part.GroupOf(j) == s && gc.At(e.Idx, j) == e.Val {
					recount++
				}
			}
			if e.Val <= 0 || recount == 0 || int(gs.cnt[k]) != recount {
				fatalf("MC(%d,%d) = %d with count %d, recount from C says %d",
					e.Idx, s, e.Val, gs.cnt[k], recount)
			}
		}
	}
}

// live is the live MC, read without publishing.
func (m *groupedModel) live() *Grouped {
	live := &Grouped{part: m.gc.part, cols: make([][]SparseEntry, len(m.gc.groups))}
	for s := range m.gc.groups {
		live.cols[s] = m.gc.groups[s].mc
	}
	return live
}

// checkPublished requires every snapshot ever published to still read
// as it did when it was taken.
func (m *groupedModel) checkPublished(t testing.TB, when string) {
	t.Helper()
	for k, p := range m.pubs {
		if !p.got.Equal(p.want) {
			t.Fatalf("%s: published snapshot %d of %d was mutated by a later commit or regroup", when, k, len(m.pubs))
		}
	}
}

// TestGroupedControlMatchesProjection is the grouped property test: for
// random partitions and commit streams (local and remote applies, write
// sets with several columns in one group, regroups), MC(i,s) ==
// max_{j∈s} C(i,j) and the count invariant hold after every operation,
// with 0–5 commits between publishes so both the copy-on-write and the
// in-place write path run, and every published snapshot is bit-stable to
// the end of the stream and across a final regroup.
func TestGroupedControlMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(39)
		m := newGroupedModel(randomPartition(rng, n))
		untilPublish := rng.Intn(6)
		for c := Cycle(1); c <= 40; c++ {
			if rng.Intn(8) == 0 {
				m.regroup(randomPartition(rng, n))
				m.check(t, "trial %d cycle %d regroup", trial, c)
			}
			cm := randomCommit(rng, n, c)
			// Half the write sets get a second column of their first
			// column's group (when it has one): multiplicity > 1.
			if j0 := cm.WriteSet[0]; rng.Intn(2) == 0 {
				for _, j := range rng.Perm(n) {
					if j != j0 && m.part.GroupOf(j) == m.part.GroupOf(j0) {
						cm.WriteSet = append(cm.WriteSet, j)
						break
					}
				}
			}
			m.apply(cm, rng.Intn(4) == 0)
			m.check(t, "trial %d cycle %d", trial, c)
			if untilPublish--; untilPublish < 0 {
				m.publish()
				untilPublish = rng.Intn(6)
			}
		}
		m.publish()
		m.checkPublished(t, fmt.Sprintf("trial %d end of stream", trial))
		m.apply(Commit{Cycle: 41, WriteSet: []int{rng.Intn(n)}}, false)
		m.regroup(UniformPartition(n, 1))
		m.check(t, "trial %d final regroup", trial)
		m.checkPublished(t, fmt.Sprintf("trial %d after regroup", trial))
	}
}

// TestGroupedSnapshotReadersRace is the ownership rule under the race
// detector: a committer writes MC columns in place between publishes
// while a reader walks every snapshot already handed out. A write
// through a column some snapshot aliases is a data race here and a
// mismatch against the snapshot's reference without -race.
func TestGroupedSnapshotReadersRace(t *testing.T) {
	const n, g = 64, 4
	m := newGroupedModel(UniformPartition(n, g))
	rng := rand.New(rand.NewSource(5))
	pubs := make(chan publishedGrouped)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var seen []publishedGrouped
		for p := range pubs {
			seen = append(seen, p)
			for k, q := range seen {
				if !q.got.Equal(q.want) {
					t.Errorf("snapshot %d changed after %d later publishes", k, len(seen)-1-k)
					return
				}
			}
		}
	}()
	for c := Cycle(1); c <= 200; c++ {
		for k := 0; k < 4; k++ {
			m.apply(randomCommit(rng, n, c), false)
		}
		m.publish()
		select {
		case pubs <- m.pubs[len(m.pubs)-1]:
		case <-done:
			return
		}
	}
	close(pubs)
	<-done
}

// FuzzGroupedControl decodes a byte stream into apply / apply-remote /
// regroup / publish operations over n ≤ 8 objects and holds every one
// to groupedModel's checks. Two header bytes pick n and g; each
// operation is three bytes: an opcode (low two bits; bit 2 advances the
// commit cycle first) and two operands — read and write bitmasks for a
// commit, group count and layout for a regroup.
func FuzzGroupedControl(f *testing.F) {
	// The corpus pin's 2-commit decrease, w(x1,x3)·c1; w(x3)·c2 over two
	// groups of two: C(1,3) drops and row 1 of group 1 vanishes.
	f.Add([]byte{2, 1, 0, 0, 0b1010, 4, 0, 0b1000})
	// A decrease that leaves a lower survivor: MC(0, {2,3}) falls 3 → 1.
	f.Add([]byte{2, 1, 0, 0, 1, 4, 1, 4, 4, 0, 1, 4, 1, 8, 3, 0, 0, 4, 0, 8, 3, 0, 0})
	// Remote applies, a publish between writes to one group, a regroup.
	f.Add([]byte{6, 2, 1, 0, 0b11, 3, 0, 0, 4, 0b101, 0b110, 2, 3, 1, 5, 0, 0b11000011, 3, 0, 0})
	// Full density (n = 8): one commit writing every object gives every
	// column one class holding all 8 rows, so every MC column is full too;
	// then read-all commits (which keep it full) around publishes, a
	// write-only commit and a remote apply that leave it, a read-all
	// write-all commit that comes back, and a regroup — over g = 4, 8, 1.
	full := []byte{4, 0, 0xFF, 3, 0, 0, 4, 0xFF, 0b11, 0, 0x0F, 0b100001, 3, 0, 0, 4, 0, 0b10, 0, 0xFF, 0b1000,
		3, 0, 0, 5, 0, 0b1100, 4, 0xFF, 0xFF, 0, 0b10000001, 0b01000010, 3, 0, 0, 2, 2, 0b1, 4, 0xF0, 0b11, 3, 0, 0}
	for _, g := range []byte{3, 7, 0} {
		f.Add(append([]byte{6, g}, full...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%7
		m := newGroupedModel(UniformPartition(n, 1+int(data[1])%n))
		set := func(mask byte) (objs []int) {
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					objs = append(objs, j)
				}
			}
			return objs
		}
		cycle := Cycle(1)
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0], ops[1], ops[2]
			if op&4 != 0 {
				cycle++
			}
			switch op & 3 {
			case 0:
				m.apply(Commit{Cycle: cycle, ReadSet: set(a), WriteSet: set(b)}, false)
			case 1:
				m.apply(Commit{Cycle: cycle, WriteSet: set(b)}, true)
			case 2:
				g := 1 + int(a)%n
				if b&1 == 0 {
					m.regroup(UniformPartition(n, g))
					break
				}
				of := make([]int, n)
				for j := range of {
					of[j] = (j*int(b>>1|1) + int(b>>4)) % g
				}
				m.regroup(NewPartition(g, of))
			case 3:
				m.publish()
			}
			m.check(t, "after op %08b %08b %08b at cycle %d", op, a, b, cycle)
		}
		m.checkPublished(t, "end of stream")
		m.regroup(UniformPartition(n, 1))
		m.check(t, "final regroup")
		m.checkPublished(t, "after final regroup")
	})
}

// TestGroupedStaleMCHookDiverges proves the induced StaleMC defect
// produces a state the projection check distinguishes — the defect
// class the conformance harness must catch end to end — from an empty
// start and from full density, where every row sits at its own
// position and raise folds in place.
func TestGroupedStaleMCHookDiverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, full := range []bool{false, true} {
		diverged := false
		for trial := 0; trial < 40 && !diverged; trial++ {
			n := 3 + rng.Intn(8)
			part := UniformPartition(n, 1+rng.Intn(n))
			dense := NewMatrix(n)
			gc := NewGroupedControl(part)
			gc.StaleMC = true
			c := Cycle(1)
			if full {
				all := rng.Perm(n)
				for _, cm := range []Commit{{WriteSet: all}, {ReadSet: all, WriteSet: all}} {
					dense.Apply(cm.ReadSet, cm.WriteSet, c)
					gc.Apply(cm.ReadSet, cm.WriteSet, c)
					c++
				}
				if nnz := gc.Grouped().Nonzeros(); nnz != int64(n*part.Groups()) {
					t.Fatalf("trial %d: %d MC entries after the fill, want all %d", trial, nnz, n*part.Groups())
				}
			}
			for end := c + 30; c < end; c++ {
				cm := randomCommit(rng, n, c)
				dense.Apply(cm.ReadSet, cm.WriteSet, c)
				gc.Apply(cm.ReadSet, cm.WriteSet, c)
				want := GroupedOf(dense, part)
				got := gc.Grouped()
				if !got.Equal(want) {
					diverged = true
					// Stale maintenance must only ever over-estimate.
					for i := 0; i < n; i++ {
						for s := 0; s < part.Groups(); s++ {
							if got.At(i, s) < want.At(i, s) {
								t.Fatalf("stale MC(%d,%d) = %d below exact %d: StaleMC is not the monotone bug",
									i, s, got.At(i, s), want.At(i, s))
							}
						}
					}
					break
				}
			}
		}
		if !diverged {
			t.Fatalf("StaleMC never diverged from the exact projection over 40 random streams (full density start: %v)", full)
		}
	}
}

// deepCopy returns a Grouped sharing no column storage with g.
func deepCopy(g *Grouped) *Grouped {
	c := &Grouped{part: g.part, cols: make([][]SparseEntry, len(g.cols))}
	for s, col := range g.cols {
		c.cols[s] = append([]SparseEntry(nil), col...)
	}
	return c
}

// TestGroupedControlFullDensity holds the commit path to the oracle
// where uplink-grouped runs it: every class column and every MC column
// holding all n rows, so each row is found at its own position and raise
// folds in place. Each control is driven there first — one commit
// writing every object, one reading and writing them all — and asserted
// to have arrived; then a stream mixes commits that keep it there (reads
// of full classes, duplicate writes, both written columns in one group)
// with write-only commits and remote applies that leave it, regroups under
// HeatPartition, and read-all commits that come back, with 0–5 commits
// between publishes. Every publish is compared with GroupedOf over the
// dense Theorem 2 matrix and every C(i, j) with the dense entry, and every
// earlier snapshot with a deep copy taken when it was published.
func TestGroupedControlFullDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{8, 33, 64} {
		for _, g := range []int{1, 3, n / 4, n} {
			m := newGroupedModel(UniformPartition(n, g))
			isFull := func() bool {
				for s := range m.gc.groups {
					if len(m.gc.groups[s].mc) != n {
						return false
					}
				}
				for _, c := range m.gc.cm.class {
					if c == nil || len(c.col) != n {
						return false
					}
				}
				return true
			}
			all := rng.Perm(n)
			m.apply(Commit{Cycle: 1, WriteSet: all}, false)
			m.apply(Commit{Cycle: 2, ReadSet: all, WriteSet: all}, false)
			if !isFull() {
				t.Fatalf("n %d g %d: not at full density after the fill", n, g)
			}
			var copies []*Grouped
			publish := func(when string) {
				t.Helper()
				m.publish()
				p := m.pubs[len(m.pubs)-1]
				if !p.got.Equal(p.want) {
					t.Fatalf("n %d g %d %s: published MC differs from GroupedOf(dense)", n, g, when)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if got, want := m.gc.At(i, j), m.dense.At(i, j); got != want {
							t.Fatalf("n %d g %d %s: C(%d,%d) = %d, dense says %d", n, g, when, i, j, got, want)
						}
					}
				}
				m.check(t, "n %d g %d %s", n, g, when)
				copies = append(copies, deepCopy(p.got))
			}
			publish("after the fill")
			left, back := 0, 0
			cycle, untilPublish := Cycle(3), rng.Intn(6)
			for step := 0; step < 400; step++ {
				if rng.Intn(3) == 0 {
					cycle++
				}
				wasFull := isFull()
				switch op := rng.Intn(20); {
				case op == 0: // a sparse new class in full groups
					m.apply(Commit{Cycle: cycle, WriteSet: rng.Perm(n)[:1+rng.Intn(2)]}, false)
				case op == 1:
					m.apply(Commit{Cycle: cycle, WriteSet: rng.Perm(n)[:1+rng.Intn(2)]}, true)
				case op == 2:
					w := make([]float64, n)
					for j := range w {
						w[j] = rng.Float64()
					}
					m.regroup(HeatPartition(w, g))
				case op == 3: // back to full density
					m.apply(Commit{Cycle: cycle, ReadSet: rng.Perm(n), WriteSet: rng.Perm(n)}, false)
				default:
					cm := Commit{Cycle: cycle, ReadSet: rng.Perm(n)[:1+rng.Intn(3)], WriteSet: rng.Perm(n)[:1+rng.Intn(2)]}
					j0 := cm.WriteSet[0]
					switch rng.Intn(3) {
					case 0: // duplicate writes
						cm.WriteSet = append(cm.WriteSet, j0, cm.WriteSet[len(cm.WriteSet)-1])
					case 1: // both written columns in one group, when it has two
						for _, j := range rng.Perm(n) {
							if j != j0 && m.part.GroupOf(j) == m.part.GroupOf(j0) {
								cm.WriteSet = []int{j0, j}
								break
							}
						}
					}
					m.apply(cm, false)
				}
				switch nowFull := isFull(); {
				case wasFull && !nowFull:
					left++
				case !wasFull && nowFull:
					back++
				}
				if untilPublish--; untilPublish < 0 {
					publish(fmt.Sprintf("step %d", step))
					untilPublish = rng.Intn(6)
				}
			}
			publish("end of stream")
			if left == 0 || back == 0 {
				t.Fatalf("n %d g %d: the stream left full density %d times and came back %d times; want both", n, g, left, back)
			}
			for k, p := range m.pubs {
				if !p.got.Equal(copies[k]) {
					t.Fatalf("n %d g %d: snapshot %d of %d changed after it was published", n, g, k, len(m.pubs))
				}
			}
		}
	}
}

// storesPrefix reports whether col stores rows 0..k−1, i.e. row i is
// col[i] for every i < k.
func storesPrefix(col []SparseEntry, k int) bool {
	return k <= len(col) && (k == 0 || col[k-1].Idx == k-1)
}

// TestGroupedIndexedWalks holds the indexed walks to the oracle at every
// edge of the state that selects them — a class column storing rows
// 0..len−1 (full), and an MC column storing at least those rows. A
// random stream mixes write-only commits of a prefix {0..k−1} (a full
// class shorter than n), sparse write-only commits, read-all commits
// (full classes of n rows), remote applies, regroups, publishes and
// same-group write pairs; after every step the live MC is compared with
// GroupedOf over the dense Theorem 2 matrix and the counts with a
// recount (groupedModel.check), and every snapshot at the end with its
// oracle. Before each step the test predicts, from the live state, which
// walk each touched group takes, and it requires the stream to have met
// every edge: a full class shorter than n lowered; a full class raised
// into an MC column not storing its rows (the merge) and a sparse class
// raised into a full MC; an indexed raise on a published column (the
// clone), with multiplicity above 1, and from a remote apply; and full
// density rebuilt by a regroup, and re-entered by a commit after a
// regroup that left it.
func TestGroupedIndexedWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	met := map[string]int{}
	for _, n := range []int{12, 33} {
		for _, g := range []int{1, 3, n / 4, n} {
			m := newGroupedModel(UniformPartition(n, g))
			full := func() bool {
				for s := range m.gc.groups {
					if len(m.gc.groups[s].mc) != n {
						return false
					}
				}
				for _, c := range m.gc.cm.class {
					if c == nil || c.missing != 0 || len(c.col) != n {
						return false
					}
				}
				return true
			}
			all := rng.Perm(n)
			regrouped := false
			for step, cycle := 0, Cycle(1); step < 300; step++ {
				if rng.Intn(3) == 0 {
					cycle++
				}
				var cm Commit
				remote := false
				switch op := rng.Intn(12); {
				case op == 0: // a full class of k < n rows
					cm = Commit{Cycle: cycle, WriteSet: rng.Perm(1 + rng.Intn(n-1))}
				case op == 1: // sparse
					cm = Commit{Cycle: cycle, WriteSet: rng.Perm(n)[:1+rng.Intn(2)]}
				case op == 2:
					cm, remote = Commit{Cycle: cycle, WriteSet: rng.Perm(n)[:1+rng.Intn(3)]}, true
				case op == 3:
					cm = Commit{Cycle: cycle, ReadSet: all, WriteSet: rng.Perm(n)[:1+rng.Intn(n)]}
				case op == 4:
					w := make([]float64, n)
					for j := range w {
						w[j] = rng.Float64()
					}
					wasFull := full()
					m.regroup(HeatPartition(w, g))
					m.check(t, "n %d g %d step %d regroup", n, g, step)
					if regrouped = !full(); wasFull && !regrouped {
						met["regroup: full density rebuilt"]++
					}
					continue
				case op == 5:
					m.publish()
					continue
				default:
					cm = Commit{Cycle: cycle, ReadSet: rng.Perm(n)[:1+rng.Intn(4)], WriteSet: rng.Perm(n)[:1+rng.Intn(2)]}
					if j0 := cm.WriteSet[0]; rng.Intn(2) == 0 {
						for _, j := range rng.Perm(n) {
							if j != j0 && m.part.GroupOf(j) == m.part.GroupOf(j0) {
								cm.WriteSet = []int{j0, j}
								break
							}
						}
					}
				}
				// What the walks will meet: the rows each touched MC column
				// stores before the commit, its sharing, the multiplicity of
				// the new class in it, and the classes lowered.
				type before struct {
					rows   []SparseEntry
					shared bool
					m      int
				}
				touched := map[int]*before{}
				seen := map[int]bool{}
				for _, j := range cm.WriteSet {
					if seen[j] {
						continue
					}
					seen[j] = true
					s := m.part.GroupOf(j)
					if touched[s] == nil {
						gs := &m.gc.groups[s]
						touched[s] = &before{rows: slices.Clone(gs.mc), shared: gs.shared}
					}
					touched[s].m++
					if old := m.gc.cm.class[j]; old != nil && old.missing == 0 && len(old.col) < n {
						met["lower: full class shorter than n"]++
					}
				}
				m.apply(cm, remote)
				m.check(t, "n %d g %d step %d", n, g, step)
				nc := m.gc.cm.class[cm.WriteSet[0]]
				for _, b := range touched {
					indexed := nc.missing == 0 && storesPrefix(b.rows, len(nc.col))
					switch {
					case nc.missing == 0 && !indexed:
						met["raise: full class into an MC column lacking its rows"]++
					case nc.missing != 0 && len(b.rows) == n:
						met["raise: sparse class into a full MC column"]++
					case indexed && b.shared:
						met["raise: indexed on a published MC column"]++
					}
					if indexed && b.m > 1 {
						met["raise: indexed with multiplicity > 1"]++
					}
					if indexed && remote {
						met["raise: indexed from a remote apply"]++
					}
				}
				if regrouped && full() {
					met["commit: full density re-entered after a regroup"]++
					regrouped = false
				}
			}
			m.publish()
			m.checkPublished(t, fmt.Sprintf("n %d g %d end of stream", n, g))
		}
	}
	for _, edge := range []string{
		"lower: full class shorter than n",
		"raise: full class into an MC column lacking its rows",
		"raise: sparse class into a full MC column",
		"raise: indexed on a published MC column",
		"raise: indexed with multiplicity > 1",
		"raise: indexed from a remote apply",
		"regroup: full density rebuilt",
		"commit: full density re-entered after a regroup",
	} {
		if met[edge] == 0 {
			t.Errorf("the stream never met %q (met: %v)", edge, met)
		}
	}
}

func TestHeatPartitionShape(t *testing.T) {
	w := []float64{0.1, 5, 0.2, 5, 3, 0.1, 0.1, 0.05}
	p := HeatPartition(w, 4)
	if p.Groups() != 4 || p.N() != len(w) {
		t.Fatalf("partition shape %d groups over %d objects", p.Groups(), p.N())
	}
	// Hottest two objects (ids 1 and 3 — ties break by id) get the two
	// singleton groups in rank order.
	if p.GroupOf(1) != 0 || p.GroupOf(3) != 1 {
		t.Fatalf("hot objects grouped as %d, %d; want singletons 0, 1", p.GroupOf(1), p.GroupOf(3))
	}
	seen := map[int]int{}
	for j := 0; j < p.N(); j++ {
		seen[p.GroupOf(j)]++
	}
	if seen[0] != 1 || seen[1] != 1 {
		t.Fatalf("hot groups not singletons: %v", seen)
	}
	// Deterministic: same weights, same partition.
	if !p.Equal(HeatPartition(w, 4)) {
		t.Fatal("HeatPartition is not deterministic")
	}
	// Degenerate ends of the spectrum.
	if g1 := HeatPartition(w, 1); g1.Groups() != 1 {
		t.Fatal("g=1 partition broken")
	}
	gn := HeatPartition(w, len(w))
	cnt := map[int]bool{}
	for j := 0; j < gn.N(); j++ {
		if cnt[gn.GroupOf(j)] {
			t.Fatal("g=n partition has a non-singleton group")
		}
		cnt[gn.GroupOf(j)] = true
	}
}

// TestLogRebuilderMatchesFromLog extends a rebuilder in random chunks
// and requires its matrix to equal the from-scratch FromLog at every
// step, and the changed-column sets to cover exactly the new writes.
func TestLogRebuilderMatchesFromLog(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		rb := NewLogRebuilder(n)
		var log []Commit
		for len(log) < 40 {
			chunk := 1 + rng.Intn(4)
			var newc []Commit
			for k := 0; k < chunk; k++ {
				newc = append(newc, randomCommit(rng, n, Cycle(len(log)+k+1)))
			}
			log = append(log, newc...)
			changed := rb.Extend(newc)
			want := FromLog(n, log)
			if !rb.Matrix().Equal(want) {
				i, j, _ := rb.Matrix().Diff(want)
				t.Fatalf("trial %d after %d commits: incremental C(%d,%d) = %d, FromLog says %d",
					trial, len(log), i, j, rb.Matrix().At(i, j), want.At(i, j))
			}
			wantChanged := map[int]bool{}
			for _, c := range newc {
				for _, j := range c.WriteSet {
					wantChanged[j] = true
				}
			}
			if len(changed) != len(wantChanged) {
				t.Fatalf("trial %d: changed set %v, want keys of %v", trial, changed, wantChanged)
			}
			for _, j := range changed {
				if !wantChanged[j] {
					t.Fatalf("trial %d: column %d reported changed but not written", trial, j)
				}
			}
			for j := 0; j < n; j++ {
				var wl Cycle
				for _, c := range log {
					for _, wj := range c.WriteSet {
						if wj == j && c.Cycle > wl {
							wl = c.Cycle
						}
					}
				}
				if rb.LastWrite(j) != wl {
					t.Fatalf("trial %d: LastWrite(%d) = %d, want %d", trial, j, rb.LastWrite(j), wl)
				}
			}
		}
	}
}

func TestDiffCols(t *testing.T) {
	a := NewMatrix(4)
	b := NewMatrix(4)
	a.Apply(nil, []int{1}, 5)
	b.Apply(nil, []int{1}, 5)
	if _, _, bad := a.DiffCols(b, []int{0, 1, 2, 3}); bad {
		t.Fatal("equal matrices reported different")
	}
	b.Apply(nil, []int{2}, 7)
	if _, _, bad := a.DiffCols(b, []int{0, 1, 3}); bad {
		t.Fatal("difference outside the compared columns reported")
	}
	i, j, bad := a.DiffCols(b, []int{2})
	if !bad || j != 2 || i != 2 {
		t.Fatalf("DiffCols found (%d,%d,%v), want (2,2,true)", i, j, bad)
	}
}

// heatedGrouped returns a grouped control in the uplink-grouped shape
// (n = 512, g = 16) after enough 2-read + 2-write commits that every
// class column and MC column is filled.
func heatedGrouped(rng *rand.Rand) *GroupedControl {
	const n, g = 512, 16
	gc := NewGroupedControl(UniformPartition(n, g))
	for c := Cycle(1); c <= 4000; c++ {
		p := rng.Perm(n)
		gc.Apply(p[:2], p[2:4], c)
	}
	return gc
}

// TestGroupedApplyAllocs pins the commit path's allocations: on columns
// not published since their last write, a steady-state commit allocates
// nothing — every MC write goes in place, the counts are reused, and the
// new class is built in the storage of the one the previous commit
// killed — and the first commit after a publish adds one clone per
// group its write set touches.
func TestGroupedApplyAllocs(t *testing.T) {
	gc := heatedGrouped(rand.New(rand.NewSource(1)))
	c := Cycle(5000)
	commit := func() {
		c++
		gc.Apply([]int{3, 200}, []int{0, 100}, c) // groups 0 and 3
	}
	commit() // warm the free list: the class of 0 and 100 dies from here on
	if allocs := testing.AllocsPerRun(100, commit); allocs != 0 {
		t.Fatalf("GroupedControl.Apply on unpublished columns allocates %.0f objects per run, want 0", allocs)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		commit()
	}
	runtime.ReadMemStats(&after)
	if size := (after.TotalAlloc - before.TotalAlloc) / runs; size != 0 {
		t.Fatalf("GroupedControl.Apply on a warm free list allocates %d bytes per commit, want no column bytes", size)
	}
	if allocs := testing.AllocsPerRun(100, func() { gc.Grouped(); commit() }); allocs > 2+2 {
		t.Fatalf("publish + first commit allocates %.0f objects per run, want ≤ 4 (snapshot 2, one clone for each of 2 groups)", allocs)
	}
}

// TestGroupedSnapshotAllocs pins the per-cycle publish cost: O(g) column
// headers in one slice, plus the Grouped itself.
func TestGroupedSnapshotAllocs(t *testing.T) {
	gc := heatedGrouped(rand.New(rand.NewSource(1)))
	if allocs := testing.AllocsPerRun(100, func() { gc.Grouped() }); allocs > 2 {
		t.Fatalf("GroupedControl.Grouped allocates %.0f objects per run, pin is 2", allocs)
	}
}

// TestLookupSparseMatchesLinear compares the bounded binary search with
// a linear scan on every subset of rows for n ≤ 10, and on the filled,
// prefix-filled and single-row columns at n = 512 that the one-probe
// shortcut and the i+1 bound are written for. A class over each column
// (colClass.at, searching only the window of rows it may miss) must
// agree too, also on columns missing 1–11 of 512 rows.
func TestLookupSparseMatchesLinear(t *testing.T) {
	linear := func(col []SparseEntry, i int) Cycle {
		for _, e := range col {
			if e.Idx == i {
				return e.Val
			}
		}
		return 0
	}
	check := func(what string, n int, col []SparseEntry) {
		t.Helper()
		for i := -1; i <= n; i++ {
			want := linear(col, i)
			if got := lookupSparse(col, i); got != want {
				t.Fatalf("%s: lookupSparse(row %d) = %d, linear scan says %d (column %v)", what, i, got, want, col)
			}
			c := &colClass{col: col, missing: missingRows(col)}
			if got := c.at(i); got != want {
				t.Fatalf("%s: class missing %d rows, at(row %d) = %d, linear scan says %d (column %v)", what, c.missing, i, got, want, col)
			}
		}
	}
	column := func(rows func(i int) bool, n int) (col []SparseEntry) {
		for i := 0; i < n; i++ {
			if rows(i) {
				col = append(col, SparseEntry{Idx: i, Val: Cycle(i + 1)})
			}
		}
		return col
	}
	for n := 0; n <= 10; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			check(fmt.Sprintf("n %d subset %b", n, mask), n, column(func(i int) bool { return mask>>i&1 == 1 }, n))
		}
	}
	const n = 512
	check("full", n, column(func(int) bool { return true }, n))
	for _, p := range []int{1, 255, 511} {
		check(fmt.Sprintf("prefix %d", p), n, column(func(i int) bool { return i < p }, n))
		check(fmt.Sprintf("prefix %d + tail", p), n, column(func(i int) bool { return i < p || i%7 == 0 }, n))
	}
	for _, r := range []int{0, 1, 300, 511} {
		check(fmt.Sprintf("single row %d", r), n, column(func(i int) bool { return i == r }, n))
	}
	rng := rand.New(rand.NewSource(47))
	for m := 1; m <= 11; m++ {
		for _, spread := range []int{n, 2 * m, m} { // anywhere, clustered, a run
			lo := rng.Intn(n - spread + 1)
			gone := map[int]bool{}
			for len(gone) < m {
				gone[lo+rng.Intn(spread)] = true
			}
			check(fmt.Sprintf("missing %d within [%d, %d)", m, lo, lo+spread), n, column(func(i int) bool { return !gone[i] }, n))
		}
	}
}

// BenchmarkGroupedApply tracks the grouped hot path at scale: one commit
// folded into a 100k-object control under heavy skew must stay
// microseconds.
func BenchmarkGroupedApply(b *testing.B) {
	const n, g = 100000, 1024
	gc := NewGroupedControl(UniformPartition(n, g))
	rng := rand.New(rand.NewSource(1))
	// Pre-heat with a skewed commit stream.
	for c := Cycle(1); c <= 2000; c++ {
		obj := int(float64(n) * rng.Float64() * rng.Float64() * rng.Float64())
		gc.Apply([]int{(obj + 1) % n}, []int{obj}, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := int(float64(n) * rng.Float64() * rng.Float64() * rng.Float64())
		gc.Apply([]int{(obj + 1) % n}, []int{obj}, Cycle(2000+i))
	}
}

// BenchmarkGroupedApplyDense is one broadcast cycle of the uplink-grouped
// workload (bench/e2e): 56 commits of 2 reads + 2 writes drawn from one
// permutation of the cycle, then the publish — filled columns, every
// group written several times between publishes. No publication is
// released, so each cycle's first write to a group clones its column.
func BenchmarkGroupedApplyDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gc := heatedGrouped(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := rng.Perm(gc.N())
		for k := 0; k < 56; k++ {
			gc.Apply(p[4*k:4*k+2], p[4*k+2:4*k+4], Cycle(5000+i))
		}
		if gc.Grouped() == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// BenchmarkGroupedApplyDenseReleased is BenchmarkGroupedApplyDense with
// the previous publication released before each publish, as a server's
// Step does: each cycle's first write to a group goes into the storage
// the group left a publication back.
func BenchmarkGroupedApplyDenseReleased(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gc := heatedGrouped(rng)
	pub := gc.Grouped()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := rng.Perm(gc.N())
		for k := 0; k < 56; k++ {
			gc.Apply(p[4*k:4*k+2], p[4*k+2:4*k+4], Cycle(5000+i))
		}
		pub.Release()
		pub = gc.Grouped()
	}
}

// BenchmarkGroupedSnapshot tracks the per-cycle publish cost at scale.
func BenchmarkGroupedSnapshot(b *testing.B) {
	const n, g = 100000, 1024
	gc := NewGroupedControl(UniformPartition(n, g))
	rng := rand.New(rand.NewSource(1))
	for c := Cycle(1); c <= 2000; c++ {
		obj := rng.Intn(n)
		gc.Apply([]int{(obj + 1) % n}, []int{obj}, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gc.Grouped() == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// BenchmarkGroupedApplySingleton tracks the exact C at the same scale
// (singleton groups, the grouped figure's floor), for comparison against
// the dense Matrix.Apply benchmarks.
func BenchmarkGroupedApplySingleton(b *testing.B) {
	const n = 100000
	gc := NewGroupedControl(UniformPartition(n, n))
	rng := rand.New(rand.NewSource(1))
	for c := Cycle(1); c <= 2000; c++ {
		obj := rng.Intn(n)
		gc.Apply([]int{(obj + 1) % n}, []int{obj}, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := rng.Intn(n)
		gc.Apply([]int{(obj + 1) % n}, []int{obj}, Cycle(2000+i))
	}
}
