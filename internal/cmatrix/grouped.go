package cmatrix

import (
	"fmt"
	"sort"
)

// This file implements the grouped control matrix of Section 3.2.2 —
// MC(i, s) = max_{j∈s} C(i, j) — as a first-class, incrementally
// maintained representation. The n×g spectrum trades restart ratio for
// control bandwidth: g = n is the F-Matrix, g = 1 the R-Matrix /
// Datacycle vector.
//
// Exact MC cannot be maintained from MC alone: Theorem 2's column
// rewrites can *decrease* entries, so a group maximum may have to go
// down, which requires knowing the other columns of the group. The
// trick making exact maintenance cheap is the class-shared sparse C of
// classMatrix: every group tracks a multiset of column classes, and a
// commit recomputes only the MC columns of groups intersecting its
// write set — a merge over the group's few distinct classes instead of
// an O(n·|s|) projection.

// Grouped is the broadcastable n×g matrix MC. It is stored as one
// sorted sparse column per group (only nonzero entries), which keeps
// memory proportional to the live structure at n ≥ 10⁵ while the
// public accessors stay those of the earlier dense representation.
// A Grouped is immutable: GroupedControl publishes fresh columns
// instead of mutating published ones.
type Grouped struct {
	part *Partition
	cols [][]SparseEntry // cols[s] = sparse MC(·, s), sorted by row
}

// GroupedOf projects a full C matrix through a partition (reference
// implementation for tests and small-n callers; O(n²)).
func GroupedOf(m *Matrix, p *Partition) *Grouped {
	if p.N() != m.N() {
		panic(fmt.Sprintf("cmatrix: partition over %d objects but matrix has %d", p.N(), m.N()))
	}
	scratch := make([]Cycle, m.N())
	g := &Grouped{part: p, cols: make([][]SparseEntry, p.Groups())}
	for s := 0; s < p.Groups(); s++ {
		clear(scratch)
		for j := 0; j < m.N(); j++ {
			if p.GroupOf(j) != s {
				continue
			}
			for i, v := range m.cols[j] {
				if v > scratch[i] {
					scratch[i] = v
				}
			}
		}
		for i, v := range scratch {
			if v > 0 {
				g.cols[s] = append(g.cols[s], SparseEntry{Idx: i, Val: v})
			}
		}
	}
	return g
}

// GroupedFromRows reconstructs a grouped matrix from dense per-object
// rows, rows[i][s] = MC(i, s), under the given partition — the shape
// the dense wire format carries.
func GroupedFromRows(p *Partition, rows [][]Cycle) (*Grouped, error) {
	if len(rows) != p.N() {
		return nil, fmt.Errorf("cmatrix: %d rows for %d objects", len(rows), p.N())
	}
	g := &Grouped{part: p, cols: make([][]SparseEntry, p.Groups())}
	for i, row := range rows {
		if len(row) != p.Groups() {
			return nil, fmt.Errorf("cmatrix: row %d has %d entries, want %d", i, len(row), p.Groups())
		}
		for s, v := range row {
			if v > 0 {
				g.cols[s] = append(g.cols[s], SparseEntry{Idx: i, Val: v})
			}
		}
	}
	return g, nil
}

// GroupEntry is one nonzero entry of an object's grouped-control row:
// MC(i, Group) = Val.
type GroupEntry struct {
	Group int
	Val   Cycle
}

// GroupedFromSparseRows reconstructs a grouped matrix from sparse
// per-object rows; each row's entries must have strictly ascending,
// in-range group ids and positive values — the sparse wire format's
// invariants.
func GroupedFromSparseRows(p *Partition, rows [][]GroupEntry) (*Grouped, error) {
	if len(rows) != p.N() {
		return nil, fmt.Errorf("cmatrix: %d sparse rows for %d objects", len(rows), p.N())
	}
	g := &Grouped{part: p, cols: make([][]SparseEntry, p.Groups())}
	for i, row := range rows {
		prev := -1
		for _, e := range row {
			if e.Group <= prev || e.Group >= p.Groups() {
				return nil, fmt.Errorf("cmatrix: row %d group id %d invalid (previous %d, groups %d)", i, e.Group, prev, p.Groups())
			}
			if e.Val <= 0 {
				return nil, fmt.Errorf("cmatrix: row %d group %d carries non-positive sparse value %d", i, e.Group, e.Val)
			}
			prev = e.Group
			g.cols[e.Group] = append(g.cols[e.Group], SparseEntry{Idx: i, Val: e.Val})
		}
	}
	return g, nil
}

// N reports the number of objects.
func (g *Grouped) N() int { return g.part.N() }

// Groups reports the number of groups.
func (g *Grouped) Groups() int { return g.part.Groups() }

// Part reports the partition the matrix is grouped under.
func (g *Grouped) Part() *Partition { return g.part }

// At returns MC(i, s).
func (g *Grouped) At(i, s int) Cycle {
	if i < 0 || i >= g.part.N() || s < 0 || s >= g.part.Groups() {
		panic(fmt.Sprintf("cmatrix: grouped entry (%d,%d) out of range for %d objects, %d groups", i, s, g.part.N(), g.part.Groups()))
	}
	return lookupSparse(g.cols[s], i)
}

// Bound returns the value compared against a prior read of object i
// when reading object j: MC(i, group(j)). Grouped implements
// ControlSnapshot.
func (g *Grouped) Bound(i, j int) Cycle { return g.At(i, g.part.GroupOf(j)) }

// Equal reports whether two grouped matrices agree on partition and
// every entry.
func (g *Grouped) Equal(o *Grouped) bool {
	if !g.part.Equal(o.part) {
		return false
	}
	for s, col := range g.cols {
		ocol := o.cols[s]
		if len(col) != len(ocol) {
			return false
		}
		for k, e := range col {
			if ocol[k] != e {
				return false
			}
		}
	}
	return true
}

// SparseRows transposes the per-group columns into per-object sparse
// rows (ascending group ids), the shape the sparse wire encoder walks.
// O(n + nnz).
func (g *Grouped) SparseRows() [][]GroupEntry {
	rows := make([][]GroupEntry, g.part.N())
	for s, col := range g.cols {
		for _, e := range col {
			rows[e.Idx] = append(rows[e.Idx], GroupEntry{Group: s, Val: e.Val})
		}
	}
	return rows
}

// RowCounts reports, per object i, how many groups s have MC(i, s) > 0
// — the length of SparseRows()[i], which is all the frame-size
// arithmetic needs of a row — in one allocation. O(n + nnz).
func (g *Grouped) RowCounts() []int32 {
	counts := make([]int32, g.part.N())
	for _, col := range g.cols {
		for _, e := range col {
			counts[e.Idx]++
		}
	}
	return counts
}

// Nonzeros reports the number of stored (nonzero) entries — the
// quantity the sparse wire encoding scales with.
func (g *Grouped) Nonzeros() int64 {
	var nnz int64
	for _, col := range g.cols {
		nnz += int64(len(col))
	}
	return nnz
}

// GroupedControl maintains an exact grouped matrix incrementally per
// Theorem 2. It implements Control; Snapshot (and Grouped) return
// immutable *Grouped views costing O(g). Regroup swaps the partition at
// a deterministic epoch boundary — the heat-adaptive grouping driven by
// the airsched EWMA estimator feeds it HeatPartition results.
type GroupedControl struct {
	cm   *classMatrix
	part *Partition
	// gcls[s] counts, per column class, how many of group s's columns
	// currently share it. The MC column of s is the pointwise max over
	// the distinct classes present.
	gcls []map[*colClass]int
	mc   [][]SparseEntry
	// Scratch reused across applies.
	affected   []int
	inAffected []bool
	mergeA     []SparseEntry
	mergeB     []SparseEntry
	clsList    []*colClass
}

// NewGroupedControl returns the cycle-0 grouped control state under the
// given partition.
func NewGroupedControl(p *Partition) *GroupedControl {
	g := &GroupedControl{
		cm:         newClassMatrix(p.N()),
		part:       p,
		gcls:       make([]map[*colClass]int, p.Groups()),
		mc:         make([][]SparseEntry, p.Groups()),
		inAffected: make([]bool, p.Groups()),
	}
	for s := range g.gcls {
		g.gcls[s] = map[*colClass]int{}
	}
	return g
}

// N implements Control.
func (g *GroupedControl) N() int { return g.cm.n }

// Part reports the current partition.
func (g *GroupedControl) Part() *Partition { return g.part }

// At returns the exact underlying C(i, j) — the verification oracle's
// view; clients only ever see MC.
func (g *GroupedControl) At(i, j int) Cycle { return g.cm.at(i, j) }

// MC returns MC(i, s) of the live state.
func (g *GroupedControl) MC(i, s int) Cycle {
	g.cm.check(i)
	if s < 0 || s >= g.part.Groups() {
		panic(fmt.Sprintf("cmatrix: group %d out of range [0,%d)", s, g.part.Groups()))
	}
	return lookupSparse(g.mc[s], i)
}

// mergeGroup rebuilds group s's sparse MC column from its class
// multiset into a freshly allocated slice (published columns are
// immutable).
func (g *GroupedControl) mergeGroup(s int) []SparseEntry {
	classes := g.clsList[:0]
	for c := range g.gcls[s] {
		classes = append(classes, c)
	}
	g.clsList = classes
	if len(classes) == 0 {
		return nil
	}
	acc := append(g.mergeA[:0], classes[0].col...)
	for _, c := range classes[1:] {
		merged := mergeMaxInto(g.mergeB[:0], acc, c.col)
		g.mergeA, g.mergeB = merged, acc[:0]
		acc = merged
	}
	g.mergeA = acc
	if len(acc) == 0 {
		return nil
	}
	return append(make([]SparseEntry, 0, len(acc)), acc...)
}

// Apply implements Control: it advances the exact class-shared C and
// recomputes the MC columns of exactly the groups intersecting the
// write set.
func (g *GroupedControl) Apply(readSet, writeSet []int, commitCycle Cycle) {
	g.apply(readSet, writeSet, commitCycle, false)
}

// ApplyRemote implements Control with the conservative cross-shard rule
// (see Control.ApplyRemote): the underlying class-shared C degrades the
// write-set columns to the diagonal-bounded column and the affected
// MC columns are rebuilt from it.
func (g *GroupedControl) ApplyRemote(writeSet []int, commitCycle Cycle) {
	g.apply(nil, writeSet, commitCycle, true)
}

func (g *GroupedControl) apply(readSet, writeSet []int, commitCycle Cycle, remote bool) {
	if len(writeSet) == 0 {
		return
	}
	ws := g.cm.distinctSorted(writeSet)
	affected := g.affected[:0]
	for _, j := range ws {
		s := g.part.GroupOf(j)
		if !g.inAffected[s] {
			g.inAffected[s] = true
			affected = append(affected, s)
		}
		if old := g.cm.class[j]; old != nil {
			if g.gcls[s][old]--; g.gcls[s][old] == 0 {
				delete(g.gcls[s], old)
			}
		}
	}
	g.affected = affected
	var nc *colClass
	if remote {
		nc = g.cm.applyRemoteDistinct(ws, commitCycle)
	} else {
		nc = g.cm.applyDistinct(readSet, ws, commitCycle)
	}
	for _, j := range ws {
		g.gcls[g.part.GroupOf(j)][nc]++
	}
	for _, s := range affected {
		g.inAffected[s] = false
		fresh := g.mergeGroup(s)
		if groupedStaleMC {
			// Induced-bug hook: the naive "monotone max" maintenance that
			// forgets group maxima can decrease when Theorem 2 rewrites
			// columns downward. See hooks.go.
			fresh = mergeMaxInto(make([]SparseEntry, 0, len(fresh)+len(g.mc[s])), g.mc[s], fresh)
		}
		g.mc[s] = fresh
	}
}

// Grouped returns the immutable broadcast view of the live MC (O(g)).
func (g *GroupedControl) Grouped() *Grouped {
	cols := make([][]SparseEntry, len(g.mc))
	copy(cols, g.mc)
	return &Grouped{part: g.part, cols: cols}
}

// Snapshot implements Control.
func (g *GroupedControl) Snapshot() ControlSnapshot { return g.Grouped() }

// Regroup installs a new partition (a deterministic regroup epoch) and
// rebuilds every group's class multiset and MC column. It reports the
// churn: how many objects changed group. The exact C is untouched.
func (g *GroupedControl) Regroup(p *Partition) (churn int) {
	if p.N() != g.cm.n {
		panic(fmt.Sprintf("cmatrix: regroup partition covers %d objects, control has %d", p.N(), g.cm.n))
	}
	for j := 0; j < g.cm.n; j++ {
		if p.GroupOf(j) != g.part.GroupOf(j) {
			churn++
		}
	}
	g.part = p
	g.gcls = make([]map[*colClass]int, p.Groups())
	g.mc = make([][]SparseEntry, p.Groups())
	if len(g.inAffected) < p.Groups() {
		g.inAffected = make([]bool, p.Groups())
	}
	for s := range g.gcls {
		g.gcls[s] = map[*colClass]int{}
	}
	for j, c := range g.cm.class {
		if c != nil {
			g.gcls[p.GroupOf(j)][c]++
		}
	}
	for s := range g.mc {
		g.mc[s] = g.mergeGroup(s)
	}
	return churn
}

// HeatPartition builds the heat-adaptive partition: objects ranked by
// weight (descending, ids ascending on ties) get fine groups while hot
// and coarse groups while cold — the hottest g/2 objects become
// singleton groups (near-F-Matrix precision where conflicts
// concentrate), the remaining objects are chunked evenly into the
// remaining groups in rank order. Deterministic for a given weight
// vector, so regroup epochs reproduce.
func HeatPartition(weights []float64, g int) *Partition {
	n := len(weights)
	if g <= 0 || g > n {
		panic(fmt.Sprintf("cmatrix: group count %d out of range [1,%d]", g, n))
	}
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool {
		if weights[rank[a]] != weights[rank[b]] {
			return weights[rank[a]] > weights[rank[b]]
		}
		return rank[a] < rank[b]
	})
	hot := g / 2 // n - hot >= g - hot holds because g <= n
	of := make([]int, n)
	for r, j := range rank {
		if r < hot {
			of[j] = r
			continue
		}
		cold, coldGroups := n-hot, g-hot
		of[j] = hot + (r-hot)*coldGroups/cold
	}
	return NewPartition(g, of)
}
