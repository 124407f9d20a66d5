package cmatrix

import (
	"fmt"
	"slices"
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
// down, which requires knowing the other columns of the group. Each
// group therefore keeps the multiset of column classes its columns
// share (the class-shared sparse C of classMatrix) and, beside every
// stored MC(i, s), the number of its columns attaining that maximum. A
// commit takes each write-set column's departing class out of the counts
// (lower), folds the new class in with its multiplicity (raise), and
// recomputes only the rows lower left at count 0 (repair): a row with a
// positive count still has a column at the stored value and none above
// it, so it is exact as it stands. That is O(nnz) per affected group.
//
// A class column that stores rows 0..len−1 is full (install records it),
// and there row i is entry i: lower indexes a full class's rows straight
// into mc, whose first entries they are; raise does so when mc stores
// them too; repair reads a full class at the row. Every other walk finds
// its rows through seek — one probe where the column is filled up to the
// row, a bounded search where it is not — and raise inserts the rows mc
// lacks by a backward merge: the filling, regrouped and sparse (n ≥ 10⁵)
// columns (DESIGN.md §9).
//
// Ownership: a column handed out by Grouped() belongs to that snapshot's
// readers and is never written again — the first raise after a publish
// copies it into fresh storage, later ones of the cycle go in place.
// Only raise and repair write MC columns, and repair only follows a
// raise; the counts are never published and always updated in place.

// Grouped is the broadcastable n×g matrix MC. It is stored as one
// sorted sparse column per group (only nonzero entries), which keeps
// memory proportional to the live structure at n ≥ 10⁵ while the
// public accessors stay those of the earlier dense representation.
// A Grouped is immutable (GroupedControl's ownership rule, above).
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
	counts := make([]int, p.Groups())
	for i, row := range rows {
		if len(row) != p.Groups() {
			return nil, fmt.Errorf("cmatrix: row %d has %d entries, want %d", i, len(row), p.Groups())
		}
		for s, v := range row {
			if v > 0 {
				counts[s]++
			}
		}
	}
	g := carve(p, counts)
	for i, row := range rows {
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
	counts := make([]int, p.Groups())
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
			counts[e.Group]++
		}
	}
	g := carve(p, counts)
	for i, row := range rows {
		for _, e := range row {
			g.cols[e.Group] = append(g.cols[e.Group], SparseEntry{Idx: i, Val: e.Val})
		}
	}
	return g, nil
}

// carve returns an empty Grouped whose column s has room for exactly
// counts[s] entries, all of them cut from one array.
func carve(p *Partition, counts []int) *Grouped {
	g, total := &Grouped{part: p, cols: make([][]SparseEntry, len(counts))}, 0
	for _, c := range counts {
		total += c
	}
	for s, all := 0, make([]SparseEntry, total); s < len(counts); s++ {
		g.cols[s], all = all[:0:counts[s]], all[counts[s]:]
	}
	return g
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
		if !slices.Equal(col, o.cols[s]) {
			return false
		}
	}
	return true
}

// Col returns MC(·, s) itself, sorted by row; callers must not write to it.
func (g *Grouped) Col(s int) []SparseEntry { return g.cols[s] }

// RowCounts reports, per object i, how many groups s have MC(i, s) > 0
// — all the frame-size arithmetic needs of a row — in one allocation.
// O(n + nnz).
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
	// StaleMC, when true, induces a known defect: a commit skips the
	// lower step, so no count reaches 0, nothing is repaired, and each
	// MC column degrades to the naive running max mc[s] = max(old, new).
	// That is wrong because Theorem 2's column rewrites can decrease a
	// group maximum; the resulting MC is a stale upper bound, still safe
	// (it only over-rejects) but not the matrix Theorem 2 defines. It
	// exists so the conformance harness can show the server's control
	// verification catches the class; see server.Config.StaleGroupedMC.
	StaleMC bool

	cm     *classMatrix
	part   *Partition
	groups []group
}

// group is the maintained state of one MC column.
type group struct {
	classes []member      // the classes the group's columns share, each once
	mc      []SparseEntry // MC(·, s), sorted by row
	cnt     []int32       // cnt[k]: how many of the columns attain mc[k].Val at row mc[k].Idx
	shared  bool          // a published *Grouped may alias mc: the next write goes to fresh storage
	writes  int32         // scratch: columns of this group in the write set being applied
	zero    []int         // scratch: rows lower left at count 0, for repair
}

// member is one class of a group with its multiplicity: how many of the
// group's columns share it.
type member struct {
	c *colClass
	m int32
}

// NewGroupedControl returns the cycle-0 grouped control state under the
// given partition.
func NewGroupedControl(p *Partition) *GroupedControl {
	g := &GroupedControl{cm: newClassMatrix(p.N())}
	g.reset(p)
	return g
}

// reset installs partition p with every group empty.
func (g *GroupedControl) reset(p *Partition) {
	g.part = p
	g.groups = make([]group, p.Groups())
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
	return lookupSparse(g.groups[s].mc, i)
}

// lower takes one column of class c out of the counts and records the
// rows it leaves with no attaining column. Every row of a member class is
// stored, because MC ≥ C > 0 there, so a full class's rows are mc's first
// and row i is mc[i].
func (gs *group) lower(c *colClass) {
	mc, cnt := gs.mc, gs.cnt
	if c.full {
		mc, cnt = mc[:len(c.col)], cnt[:len(c.col)]
		for i, e := range c.col {
			if drop(mc[i].Val, &cnt[i], e.Val) {
				gs.zero = append(gs.zero, i)
			}
		}
		return
	}
	skip := 0
	for _, e := range c.col {
		k, _ := seek(mc, skip, e.Idx)
		if skip = e.Idx - k; drop(mc[k].Val, &cnt[k], e.Val) {
			gs.zero = append(gs.zero, e.Idx)
		}
	}
}

// drop takes one column holding v out of count c of stored maximum top
// and reports whether that left the maximum with no attaining column.
// Like fold it is branch-free; top may be published, so it is only read.
func drop(top Cycle, c *int32, v Cycle) bool {
	attains, n := top == v, *c
	if attains {
		n--
	}
	*c = n
	return n == 0 && attains
}

// raise folds class c, carried by m of the group's columns, into mc (a
// copy of it, if published). A full class whose rows mc already stores —
// rows 0..len(c.col)−1, so row i is entry i of both — folds in one
// indexed pass; otherwise every row mc stores is updated where seek finds
// it, and a backward merge inserts the rest.
func (gs *group) raise(c *colClass, m int32) {
	if gs.shared {
		gs.mc, gs.shared = slices.Clone(gs.mc), false
	}
	mc, cnt, col := gs.mc, gs.cnt, c.col
	if n := len(col); c.full && n <= len(mc) && mc[n-1].Idx == n-1 {
		mc, cnt = mc[:n], cnt[:n]
		for i, e := range col {
			fold(&mc[i], &cnt[i], e.Val, m)
		}
		return
	}
	missing, skip := 0, 0
	for _, e := range col {
		k, ok := seek(mc, skip, e.Idx)
		if skip = e.Idx - k; !ok {
			missing++
			continue
		}
		fold(&mc[k], &cnt[k], e.Val, m)
	}
	if missing == 0 {
		return
	}
	i := len(mc) - 1
	mc = append(mc, make([]SparseEntry, missing)...)
	cnt = append(cnt, make([]int32, missing)...)
	gs.mc, gs.cnt = mc, cnt
	// o - i rows are still to insert; rows before the first of them never move.
	for j, o := len(col)-1, len(mc)-1; o > i; j-- {
		for i >= 0 && mc[i].Idx > col[j].Idx {
			mc[o], cnt[o] = mc[i], cnt[i]
			i, o = i-1, o-1
		}
		if i < 0 || mc[i].Idx != col[j].Idx {
			mc[o], cnt[o] = col[j], m
			o--
		}
	}
}

// fold folds value v, attained by m columns, into a stored maximum e.Val
// and its count c. It is branch-free: whether v meets or passes the
// maximum is a coin toss the predictor would lose.
func fold(e *SparseEntry, c *int32, v Cycle, m int32) {
	n := *c
	if v == e.Val {
		n += m
	}
	if v > e.Val {
		n = m
	}
	e.Val, *c = max(e.Val, v), n
}

// repair recomputes the rows lower left with no attaining column — their
// stored maximum is stale-high unless raise met it again — over the
// group's classes, and drops those whose maximum fell to 0.
func (gs *group) repair() {
	mc, cnt, stale := gs.mc, gs.cnt, gs.zero[:0]
	for _, r := range gs.zero { // rows to the positions still at count 0
		if k, _ := seek(mc, 0, r); cnt[k] == 0 {
			mc[k].Val = 0
			stale = append(stale, k)
		}
	}
	gs.zero = stale[:0]
	// Classes outside, rows inside: each class column is probed while hot.
	for _, c := range gs.classes {
		for _, k := range stale {
			fold(&mc[k], &cnt[k], c.c.at(mc[k].Idx), c.m)
		}
	}
	if !slices.ContainsFunc(stale, func(k int) bool { return mc[k].Val == 0 }) {
		return
	}
	o := 0
	for k := range mc {
		if mc[k].Val > 0 {
			mc[o], cnt[o] = mc[k], cnt[k]
			o++
		}
	}
	gs.mc, gs.cnt = mc[:o], cnt[:o]
}

// Apply implements Control: it advances the exact class-shared C and
// updates the MC columns of exactly the groups intersecting the write
// set.
func (g *GroupedControl) Apply(readSet, writeSet []int, commitCycle Cycle) {
	g.apply(readSet, writeSet, commitCycle, false)
}

// ApplyRemote implements Control with the conservative cross-shard rule
// (see Control.ApplyRemote): the underlying class-shared C degrades the
// write-set columns to the diagonal-bounded column, which the affected
// MC columns absorb like any other class.
func (g *GroupedControl) ApplyRemote(writeSet []int, commitCycle Cycle) {
	g.apply(nil, writeSet, commitCycle, true)
}

func (g *GroupedControl) apply(readSet, writeSet []int, commitCycle Cycle, remote bool) {
	if len(writeSet) == 0 {
		return
	}
	ws := g.cm.distinctSorted(writeSet)
	for _, j := range ws {
		gs := &g.groups[g.part.GroupOf(j)]
		gs.writes++
		if old := g.cm.class[j]; old != nil {
			k := 0
			for gs.classes[k].c != old {
				k++
			}
			if gs.classes[k].m--; gs.classes[k].m == 0 {
				gs.classes = slices.Delete(gs.classes, k, k+1)
			}
			if !g.StaleMC {
				gs.lower(old)
			}
		}
	}
	var nc *colClass
	if remote {
		nc = g.cm.applyRemoteDistinct(ws, commitCycle)
	} else {
		nc = g.cm.applyDistinct(readSet, ws, commitCycle)
	}
	for _, j := range ws {
		// The first write-set column of a group raises for all of them.
		if gs := &g.groups[g.part.GroupOf(j)]; gs.writes > 0 {
			gs.classes = append(gs.classes, member{nc, gs.writes})
			gs.raise(nc, gs.writes)
			gs.repair()
			gs.writes = 0
		}
	}
}

// Grouped returns the immutable broadcast view of the live MC (O(g)).
// Every column it hands out is shared from here on.
func (g *GroupedControl) Grouped() *Grouped {
	cols := make([][]SparseEntry, len(g.groups))
	for s := range g.groups {
		cols[s], g.groups[s].shared = g.groups[s].mc, true
	}
	return &Grouped{part: g.part, cols: cols}
}

// Snapshot implements Control.
func (g *GroupedControl) Snapshot() ControlSnapshot { return g.Grouped() }

// Regroup installs a new partition (a deterministic regroup epoch):
// every group starts empty and raises each class it holds. It reports
// the churn: how many objects changed group. The exact C is untouched.
func (g *GroupedControl) Regroup(p *Partition) (churn int) {
	if p.N() != g.cm.n {
		panic(fmt.Sprintf("cmatrix: regroup partition covers %d objects, control has %d", p.N(), g.cm.n))
	}
	for j := 0; j < g.cm.n; j++ {
		if p.GroupOf(j) != g.part.GroupOf(j) {
			churn++
		}
	}
	g.reset(p)
	type slot struct {
		s int
		c *colClass
	}
	members := map[slot]int32{}
	for j, c := range g.cm.class {
		if c != nil {
			members[slot{p.GroupOf(j), c}]++
		}
	}
	for sl, m := range members { // any order: a maximum and its count do not depend on it
		gs := &g.groups[sl.s]
		gs.classes = append(gs.classes, member{sl.c, m})
		gs.raise(sl.c, m)
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
