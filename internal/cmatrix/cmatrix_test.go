package cmatrix

import (
	"math/rand"
	"strings"
	"testing"
)

// TestPaperExample4 reproduces the worked example of Section 3.2.1:
//
//	w1(ob1) w1(ob2) c1  r2(ob1) w2(ob1) c2  r3(ob2) w3(ob2) c3
//
// with commit c_i in cycle i; objects 0-indexed (ob1 -> 0, ob2 -> 1).
func TestPaperExample4(t *testing.T) {
	m := NewMatrix(2)
	m.Apply(nil, []int{0, 1}, 1)   // t1
	m.Apply([]int{0}, []int{0}, 2) // t2
	m.Apply([]int{1}, []int{1}, 3) // t3
	want := [2][2]Cycle{{2, 1}, {1, 3}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got := m.At(i, j); got != want[i][j] {
				t.Errorf("C(%d,%d) = %d, want %d", i+1, j+1, got, want[i][j])
			}
		}
	}
	// The same log through the from-definition reference must agree.
	ref := FromLog(2, []Commit{
		{WriteSet: []int{0, 1}, Cycle: 1},
		{ReadSet: []int{0}, WriteSet: []int{0}, Cycle: 2},
		{ReadSet: []int{1}, WriteSet: []int{1}, Cycle: 3},
	})
	if !m.Equal(ref) {
		t.Errorf("incremental:\n%s\nfrom definition:\n%s", m, ref)
	}
}

func TestApplyNoReadsResetsColumn(t *testing.T) {
	// A blind writer with an empty read set depends only on itself:
	// other rows of its column drop to 0.
	m := NewMatrix(3)
	m.Apply([]int{1}, []int{0}, 5) // t1 reads ob1, writes ob0
	m.Apply(nil, []int{1}, 6)      // t2 blind-writes ob1
	if m.At(0, 1) != 0 || m.At(2, 1) != 0 {
		t.Errorf("blind write should reset foreign rows of its column: %s", m)
	}
	if m.At(1, 1) != 6 {
		t.Errorf("C(1,1) = %d, want 6", m.At(1, 1))
	}
	// Column 0 keeps the stale dependency until ob0 is rewritten.
	if m.At(0, 0) != 5 {
		t.Errorf("C(0,0) = %d, want 5", m.At(0, 0))
	}
}

func TestApplyReadOnlyIsNoOp(t *testing.T) {
	m := NewMatrix(2)
	m.Apply([]int{0, 1}, nil, 9)
	if !m.Equal(NewMatrix(2)) {
		t.Error("read-only transaction must not change the matrix")
	}
}

func TestApplyReadWriteOverlap(t *testing.T) {
	// t reads and writes the same object: rule 1 (i,j in WS) wins for
	// the diagonal; dependencies flow through the read.
	m := NewMatrix(2)
	m.Apply(nil, []int{1}, 3)         // t1 writes ob1
	m.Apply([]int{0, 1}, []int{0}, 4) // t2 reads ob0, ob1; writes ob0
	if m.At(0, 0) != 4 {
		t.Errorf("C(0,0) = %d, want 4", m.At(0, 0))
	}
	// t2 depends on t1 (read ob1), and t1 wrote ob1 in cycle 3.
	if m.At(1, 0) != 3 {
		t.Errorf("C(1,0) = %d, want 3", m.At(1, 0))
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(3)
	m.Apply(nil, []int{0, 2}, 7)
	col := m.Column(2)
	if len(col) != 3 || col[0] != 7 || col[1] != 0 || col[2] != 7 {
		t.Errorf("Column(2) = %v", col)
	}
	c := m.Clone()
	c.Apply(nil, []int{1}, 8)
	if m.Equal(c) {
		t.Error("clone should be independent")
	}
	if !strings.Contains(m.String(), "7") {
		t.Error("String should render entries")
	}
}

func TestMatrixPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMatrix(0) },
		func() { NewMatrix(2).At(2, 0) },
		func() { NewMatrix(2).At(0, -1) },
		func() { NewMatrix(2).Apply([]int{5}, []int{0}, 1) },
		func() { NewMatrix(2).Apply(nil, []int{-1}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// randomLog builds a random committed-update log with non-decreasing
// commit cycles.
func randomLog(rng *rand.Rand, n, txns int) []Commit {
	log := make([]Commit, 0, txns)
	cycle := Cycle(1)
	for t := 0; t < txns; t++ {
		var c Commit
		for _, k := range rng.Perm(n)[:rng.Intn(n)] {
			c.ReadSet = append(c.ReadSet, k)
		}
		nw := 1 + rng.Intn(2)
		for _, k := range rng.Perm(n)[:nw] {
			c.WriteSet = append(c.WriteSet, k)
		}
		if rng.Float64() < 0.4 {
			cycle++
		}
		c.Cycle = cycle
		log = append(log, c)
	}
	return log
}

// Theorem 2: the incremental rule preserves the matrix semantics.
func TestIncrementalMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(5)
		log := randomLog(rng, n, rng.Intn(12))
		inc := NewMatrix(n)
		for _, c := range log {
			inc.Apply(c.ReadSet, c.WriteSet, c.Cycle)
		}
		ref := FromLog(n, log)
		if !inc.Equal(ref) {
			t.Fatalf("trial %d (n=%d, %d txns):\nincremental:\n%s\ndefinition:\n%s",
				trial, n, len(log), inc, ref)
		}
	}
}

// VectorOf projects a full C matrix to the one-partition vector:
// V(i) = max_j C(i,j).
func VectorOf(m *Matrix) *Vector {
	v := NewVector(m.N())
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if x := m.At(i, j); x > v.v[i] {
				v.v[i] = x
			}
		}
	}
	return v
}

// The R-Matrix vector is exactly the one-partition projection of C, and
// its direct maintenance (write cycle per object) agrees.
func TestVectorMatchesMatrixProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		log := randomLog(rng, n, rng.Intn(12))
		m := NewMatrix(n)
		v := NewVector(n)
		for _, c := range log {
			m.Apply(c.ReadSet, c.WriteSet, c.Cycle)
			v.Apply(c.WriteSet, c.Cycle)
		}
		proj := VectorOf(m)
		for i := 0; i < n; i++ {
			if v.At(i) != proj.At(i) {
				t.Fatalf("trial %d: V(%d) = %d but max_j C(%d,j) = %d\n%s",
					trial, i, v.At(i), i, proj.At(i), m)
			}
		}
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(3)
	v.Apply([]int{1}, 4)
	if v.N() != 3 || v.At(1) != 4 || v.At(0) != 0 {
		t.Errorf("vector state wrong: %+v", v)
	}
	c := v.Clone()
	c.Apply([]int{0}, 5)
	if v.At(0) != 0 {
		t.Error("clone should be independent")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on bad index")
			}
		}()
		v.Apply([]int{9}, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on n=0")
			}
		}()
		NewVector(0)
	}()
}

func TestPartitions(t *testing.T) {
	p := UniformPartition(6, 3)
	if p.Groups() != 3 || p.N() != 6 {
		t.Fatalf("partition shape wrong: %+v", p)
	}
	// Contiguous, near-equal groups.
	counts := make([]int, 3)
	for j := 0; j < 6; j++ {
		counts[p.GroupOf(j)]++
	}
	for g, c := range counts {
		if c != 2 {
			t.Errorf("group %d has %d objects, want 2", g, c)
		}
	}
	// Degenerate cases.
	if g := UniformPartition(5, 1); g.GroupOf(4) != 0 {
		t.Error("single partition must map everything to group 0")
	}
	fm := UniformPartition(5, 5)
	for j := 0; j < 5; j++ {
		if fm.GroupOf(j) != j {
			t.Error("singleton partition must be the identity")
		}
	}
	explicit := NewPartition(2, []int{0, 1, 0})
	if explicit.GroupOf(2) != 0 {
		t.Error("explicit partition wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on out-of-range group")
			}
		}()
		NewPartition(2, []int{0, 2})
	}()
}

// MC(i,s) = max_{j in s} C(i,j); singleton groups reduce to C itself and
// the single group reduces to the vector.
func TestGroupedProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		m := NewMatrix(n)
		for _, c := range randomLog(rng, n, rng.Intn(10)) {
			m.Apply(c.ReadSet, c.WriteSet, c.Cycle)
		}
		fm := GroupedOf(m, UniformPartition(n, n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if fm.Bound(i, j) != m.At(i, j) {
					t.Fatalf("singleton grouping must equal C")
				}
			}
		}
		one := GroupedOf(m, UniformPartition(n, 1))
		v := VectorOf(m)
		for i := 0; i < n; i++ {
			if one.Bound(i, 0) != v.At(i) {
				t.Fatalf("single grouping must equal the vector")
			}
		}
		if one.Groups() != 1 || one.N() != n {
			t.Fatal("grouped shape accessors wrong")
		}
		// General: MC dominates C entrywise within the group.
		g := 1 + rng.Intn(n)
		mc := GroupedOf(m, UniformPartition(n, g))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if mc.Bound(i, j) < m.At(i, j) {
					t.Fatalf("MC must dominate C within groups")
				}
			}
		}
	}
}

func TestGroupedOfDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GroupedOf(NewMatrix(3), UniformPartition(4, 2))
}

func TestRawConstructors(t *testing.T) {
	m := NewMatrix(2)
	m.Apply([]int{0}, []int{1}, 5)
	cols := [][]Cycle{m.Column(0), m.Column(1)}
	back, err := MatrixFromColumns(cols)
	if err != nil || !back.Equal(m) {
		t.Fatalf("MatrixFromColumns round trip: %v", err)
	}
	if _, err := MatrixFromColumns(nil); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := MatrixFromColumns([][]Cycle{{1}, {1, 2}}); err == nil {
		t.Error("ragged columns should fail")
	}

	v, err := VectorFromEntries([]Cycle{3, 4})
	if err != nil || v.At(1) != 4 {
		t.Fatalf("VectorFromEntries: %v", err)
	}
	if _, err := VectorFromEntries(nil); err == nil {
		t.Error("no entries should fail")
	}

	p := UniformPartition(2, 2)
	gm, err := GroupedFromRows(p, [][]Cycle{{1, 2}, {3, 4}})
	if err != nil || gm.At(1, 0) != 3 || gm.At(0, 1) != 2 {
		t.Fatalf("GroupedFromRows: %v", err)
	}
	if _, err := GroupedFromRows(p, [][]Cycle{{1, 2}}); err == nil {
		t.Error("wrong row count should fail")
	}
	if _, err := GroupedFromRows(p, [][]Cycle{{1}, {2}}); err == nil {
		t.Error("wrong row width should fail")
	}
}

func TestDiffAndDeltaInPackage(t *testing.T) {
	old := NewMatrix(2)
	cur := old.Clone()
	cur.Apply(nil, []int{0}, 3)
	entries, err := Diff(old, cur)
	if err != nil || len(entries) == 0 {
		t.Fatalf("Diff: %v %v", entries, err)
	}
	rebuilt := old.Clone()
	if err := rebuilt.ApplyDelta(entries); err != nil || !rebuilt.Equal(cur) {
		t.Fatalf("ApplyDelta: %v", err)
	}
}

func TestCodecLessHelper(t *testing.T) {
	c := Codec{Bits: 8}
	// a=10, b=12, cur=20: 10 < 12.
	if !(c.Decode(c.Encode(10), 20) < 12) {
		t.Error("Decode(enc(10)) < 12 should hold")
	}
	if c.Decode(c.Encode(15), 20) < 12 {
		t.Error("Decode(enc(15)) < 12 should not hold")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c := Codec{Bits: 8}
	if c.Mod() != 256 {
		t.Fatalf("Mod wrong: %d", c.Mod())
	}
	for _, cur := range []Cycle{0, 1, 255, 256, 300, 1 << 20} {
		for back := Cycle(0); back <= 255 && back <= cur; back += 17 {
			orig := cur - back
			raw := c.Encode(orig)
			if got := c.Decode(raw, cur); got != orig {
				t.Errorf("Decode(Encode(%d), cur=%d) = %d", orig, cur, got)
			}
		}
	}
}

func TestCodecLessMatchesUnwrapped(t *testing.T) {
	c := Codec{Bits: 4} // mod 16, tight wrap to stress the arithmetic
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 1000; trial++ {
		cur := Cycle(rng.Intn(1000))
		span := Cycle(rng.Intn(int(c.Mod()))) // at most Mod()-1 cycles back: comparisons stay exact
		a := cur - span
		if a < 0 {
			continue
		}
		b := cur - Cycle(rng.Intn(int(c.Mod())))
		if b < 0 {
			continue
		}
		if got, want := c.Decode(c.Encode(a), cur) < b, a < b; got != want {
			t.Fatalf("Decode(enc(%d), cur=%d) < %d = %v, want %v", a, cur, b, got, want)
		}
	}
}

func TestCodecPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Codec{Bits: 0}.Mod() },
		func() { Codec{Bits: 33}.Mod() },
		func() { Codec{Bits: 8}.Encode(-1) },
		func() { Codec{Bits: 8}.Decode(300, 10) },
		func() { Codec{Bits: 8}.Decode(1, -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
