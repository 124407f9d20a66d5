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
// commit share one sparse column, unchanged while refs (the columns
// sharing it) > 0; never published, a dead class is rebuilt later.
type colClass struct {
	col  []SparseEntry
	refs int32
	full bool // col stores rows 0..len(col)−1, so row i is col[i]
}

// at returns the class's entry at row i.
func (c *colClass) at(i int) Cycle {
	if c.full && uint(i) < uint(len(c.col)) {
		return c.col[i].Val
	}
	return lookupSparse(c.col, i)
}

// classMatrix is the exact C matrix stored as class-shared sparse
// columns: class[j] is the column of object j's last writer (nil for
// the all-zero t0 column). Memory is O(n + Σ nnz over live classes)
// instead of O(n²), and Apply costs O(|RS ∪ WS| column merges) instead
// of O(|WS|·n) — the representation under GroupedControl that makes
// F-Matrix semantics feasible at n ≥ 10⁵.
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
	free           []*colClass // dead classes, for install to rebuild
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
		return c.at(i)
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
		if c := cm.class[k]; c != nil && !slices.Contains(classes, c) {
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
	return cm.install(wsSorted, cm.mergeA, commitCycle)
}

// install gives the write-set columns a new class holding col, reusing
// the last freed one, and frees each class losing its last column — last
// in the commit, as depColumn and lower may still read a dying class.
func (cm *classMatrix) install(wsSorted []int, col []SparseEntry, commitCycle Cycle) *colClass {
	if len(cm.free) == 0 {
		cm.free = append(cm.free, &colClass{})
	}
	nc := cm.free[len(cm.free)-1]
	cm.free = cm.free[:len(cm.free)-1]
	if cap(nc.col) < len(col) {
		nc.col = make([]SparseEntry, 0, len(col))
	}
	nc.col, nc.refs = append(nc.col[:0], col...), int32(len(wsSorted))
	nc.full = len(col) > 0 && col[len(col)-1].Idx == len(col)-1
	for _, j := range wsSorted {
		if old := cm.class[j]; old != nil {
			if old.refs--; old.refs == 0 {
				cm.free = append(cm.free, old)
			}
		}
		cm.class[j], cm.lastWrite[j] = nc, commitCycle
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
	col := cm.mergeA[:0]
	for i, v := range cm.lastWrite {
		if v > 0 {
			col = append(col, SparseEntry{Idx: i, Val: v})
		}
	}
	cm.mergeA = col
	return cm.install(wsSorted, col, commitCycle)
}
