package cmatrix

import (
	"fmt"
	"slices"
	"sort"
)

// SparseEntry is one nonzero entry of a sparse control column: row Idx
// holds Val. Sparse columns are sorted by Idx and carry only strictly
// positive values — under workload skew most C entries stay at the
// virtual cycle 0, which sparse representations never store.
type SparseEntry struct {
	Idx int
	Val Cycle
}

// seek returns where row i is in a sorted sparse column, or would be
// inserted, and whether it is there. skip counts rows the column is known
// to lack below i (a walk over ascending rows passes what it knew at its
// last row: that row minus the position seek gave it). Rows are distinct
// and non-negative, so row i sits at position ≤ i − skip, and exactly
// there when no other row below it is missing — at i in a column filled
// up to it, a hot column's steady state — which one probe checks.
func seek(col []SparseEntry, skip, i int) (k int, ok bool) {
	p := i - skip
	if uint(p) < uint(len(col)) && col[p].Idx == i {
		return p, true
	}
	hi := min(len(col), p+1)
	for k < hi {
		mid := int(uint(k+hi) >> 1)
		if col[mid].Idx < i {
			k = mid + 1
		} else {
			hi = mid
		}
	}
	return k, k < len(col) && col[k].Idx == i
}

// lookupSparse returns the value at row i of a sorted sparse column
// (0 when absent).
func lookupSparse(col []SparseEntry, i int) Cycle {
	if k, ok := seek(col, 0, i); ok {
		return col[k].Val
	}
	return 0
}

// mergeMaxInto appends the pointwise maximum of two sorted sparse
// columns to dst (usually dst[:0] of a reusable scratch buffer).
func mergeMaxInto(dst, a, b []SparseEntry) []SparseEntry {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		e, f := a[i], b[j]
		switch {
		case e.Idx == f.Idx:
			e.Val = max(e.Val, f.Val)
			i, j = i+1, j+1
		case e.Idx < f.Idx:
			i++
		default:
			e = f
			j++
		}
		dst = append(dst, e)
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// colClass is one equivalence class of identical C-matrix columns.
// Theorem 2 rewrites every column of a committing transaction's write
// set to the same values, so all columns last written by the same
// commit share one immutable sparse column; the class is never mutated
// after apply builds it, which makes snapshots of class pointers stable.
type colClass struct {
	col []SparseEntry
}

// classMatrix is the exact C matrix stored as class-shared sparse
// columns: class[j] is the column of object j's last writer (nil for
// the all-zero t0 column). Memory is O(n + Σ nnz over live classes)
// instead of O(n²), and Apply costs O(|RS ∪ WS| column merges) instead
// of O(|WS|·n) — the representation that makes F-Matrix semantics
// feasible at n ≥ 10⁵.
type classMatrix struct {
	n     int
	class []*colClass
	// lastWrite[i] mirrors the diagonal C(i,i) — the commit cycle of
	// object i's last writer (0 if never written). Every apply rule
	// stamps C(j,j) = commitCycle for j ∈ WS and leaves other diagonal
	// entries alone, so an O(|WS|) update keeps it exact. Remote
	// applies read it to build their diagonal-bounded columns without
	// an O(n log nnz) sweep of per-row lookups.
	lastWrite []Cycle
	// Scratch buffers reused across applies; owned exclusively by this
	// matrix.
	mergeA, mergeB []SparseEntry
	clsScratch     []*colClass
	wsScratch      []int
}

func newClassMatrix(n int) *classMatrix {
	if n <= 0 {
		panic(fmt.Sprintf("cmatrix: class matrix needs n > 0, got %d", n))
	}
	return &classMatrix{n: n, class: make([]*colClass, n), lastWrite: make([]Cycle, n)}
}

func (cm *classMatrix) check(i int) {
	if i < 0 || i >= cm.n {
		panic(fmt.Sprintf("cmatrix: object %d out of range [0,%d)", i, cm.n))
	}
}

// at returns C(i, j).
func (cm *classMatrix) at(i, j int) Cycle {
	cm.check(i)
	cm.check(j)
	if c := cm.class[j]; c != nil {
		return lookupSparse(c.col, i)
	}
	return 0
}

// distinctSorted writes the distinct members of set, ascending, into
// the scratch write-set buffer (valid until the next call).
func (cm *classMatrix) distinctSorted(set []int) []int {
	ws := cm.wsScratch[:0]
	for _, j := range set {
		cm.check(j)
		ws = append(ws, j)
	}
	sort.Ints(ws)
	out := ws[:0]
	for k, j := range ws {
		if k == 0 || ws[k-1] != j {
			out = append(out, j)
		}
	}
	cm.wsScratch = ws[:len(out)]
	return out
}

// depColumn computes dep[i] = max_{k∈RS} Cold(i,k) as a sparse column
// over the distinct classes of the read columns: read-only, valid until
// the next apply — a single class as it lies, a merge of several in
// scratch.
func (cm *classMatrix) depColumn(readSet []int) []SparseEntry {
	classes := cm.clsScratch[:0]
	for _, k := range readSet {
		cm.check(k)
		c := cm.class[k]
		if c == nil {
			continue
		}
		seen := false
		for _, have := range classes {
			if have == c {
				seen = true
				break
			}
		}
		if !seen {
			classes = append(classes, c)
		}
	}
	cm.clsScratch = classes
	if len(classes) == 0 {
		return nil
	}
	// dep lives in the class or in mergeB; mergeA is always free.
	dep := classes[0].col
	for _, c := range classes[1:] {
		merged := mergeMaxInto(cm.mergeA[:0], dep, c.col)
		cm.mergeA, cm.mergeB = cm.mergeB, merged
		dep = merged
	}
	return dep
}

// applyDistinct folds one committed transaction per Theorem 2, given
// the write set pre-deduplicated and sorted (see distinctSorted), and
// returns the freshly built class all write-set columns now share.
func (cm *classMatrix) applyDistinct(readSet, wsSorted []int, commitCycle Cycle) *colClass {
	if len(wsSorted) == 0 {
		return nil
	}
	dep := cm.depColumn(readSet)
	// New column: commitCycle at every write-set row, dep elsewhere, built
	// in scratch from dep's runs between them; the class keeps a copy.
	col, d := cm.mergeA[:0], 0
	for _, j := range wsSorted {
		k, ok := seek(dep, 0, j)
		col = append(col, dep[d:k]...)
		if commitCycle > 0 {
			col = append(col, SparseEntry{Idx: j, Val: commitCycle})
		}
		if d = k; ok {
			d++ // the write-set value supersedes dep at this row
		}
	}
	cm.mergeA = append(col, dep[d:]...)
	nc := &colClass{col: slices.Clone(cm.mergeA)}
	for _, j := range wsSorted {
		cm.class[j] = nc
		cm.lastWrite[j] = commitCycle
	}
	return nc
}

// applyRemoteDistinct folds one committed transaction whose read set is
// not locally visible (a cross-shard commit): the Theorem 2 dep column
// is unknowable, but Cold(i,k) ≤ Cold(i,i) for every k, so the written
// columns take the diagonal-bounded conservative column — commitCycle
// at write-set rows, the row's last-write cycle elsewhere (see
// Control.ApplyRemote). Rows of never-written objects stay absent, so
// the column's nonzero structure is the set of ever-written objects and
// the sparse representation survives remote applies; all write-set
// columns still share one class.
func (cm *classMatrix) applyRemoteDistinct(wsSorted []int, commitCycle Cycle) *colClass {
	if len(wsSorted) == 0 {
		return nil
	}
	for _, j := range wsSorted {
		cm.lastWrite[j] = commitCycle
	}
	var col []SparseEntry
	for i, v := range cm.lastWrite {
		if v > 0 {
			col = append(col, SparseEntry{Idx: i, Val: v})
		}
	}
	nc := &colClass{col: col}
	for _, j := range wsSorted {
		cm.class[j] = nc
	}
	return nc
}

// SparseControl is the exact F-Matrix control state in the class-shared
// sparse representation: read-condition semantics identical to *Matrix,
// memory and maintenance cost proportional to the live nonzero
// structure. It implements Control.
type SparseControl struct {
	cm *classMatrix
}

// NewSparseControl returns the cycle-0 sparse C matrix over n objects.
func NewSparseControl(n int) *SparseControl {
	return &SparseControl{cm: newClassMatrix(n)}
}

// N implements Control.
func (s *SparseControl) N() int { return s.cm.n }

// At returns C(i, j).
func (s *SparseControl) At(i, j int) Cycle { return s.cm.at(i, j) }

// Bound implements ControlSnapshot semantics on the live state (tests
// and single-threaded replay use it directly).
func (s *SparseControl) Bound(i, j int) Cycle { return s.cm.at(i, j) }

// Apply implements Control per Theorem 2's incremental rule.
func (s *SparseControl) Apply(readSet, writeSet []int, commitCycle Cycle) {
	if len(writeSet) == 0 {
		return
	}
	s.cm.applyDistinct(readSet, s.cm.distinctSorted(writeSet), commitCycle)
}

// ApplyRemote implements Control with the conservative cross-shard rule.
func (s *SparseControl) ApplyRemote(writeSet []int, commitCycle Cycle) {
	if len(writeSet) == 0 {
		return
	}
	s.cm.applyRemoteDistinct(s.cm.distinctSorted(writeSet), commitCycle)
}

// Snapshot implements Control: an O(n) copy of the class pointers.
// Classes are immutable after construction, so the snapshot is stable
// under later applies.
func (s *SparseControl) Snapshot() ControlSnapshot {
	classes := make([]*colClass, s.cm.n)
	copy(classes, s.cm.class)
	return &SparseSnapshot{n: s.cm.n, class: classes}
}

// Dense materializes the full matrix (small-n tests only).
func (s *SparseControl) Dense() *Matrix {
	m := NewMatrix(s.cm.n)
	for j, c := range s.cm.class {
		if c == nil {
			continue
		}
		for _, e := range c.col {
			m.cols[j][e.Idx] = e.Val
		}
	}
	return m
}

// SparseSnapshot is an immutable point-in-time view of a SparseControl.
type SparseSnapshot struct {
	n     int
	class []*colClass
}

// N implements ControlSnapshot.
func (s *SparseSnapshot) N() int { return s.n }

// Bound implements ControlSnapshot with the exact entry C(i, j).
func (s *SparseSnapshot) Bound(i, j int) Cycle {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(fmt.Sprintf("cmatrix: entry (%d,%d) out of range for n=%d", i, j, s.n))
	}
	if c := s.class[j]; c != nil {
		return lookupSparse(c.col, i)
	}
	return 0
}
