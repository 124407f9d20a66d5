package cmatrix

import "sort"

// LogRebuilder is the incremental form of FromLog: it maintains the
// definition-based C matrix over a growing committed-update log,
// recomputing only the columns whose last writer changed. FromLog
// recomputes all n columns from scratch on every call — O(|log|·n) per
// verification — which made the server's sampled VerifyControl and the
// conformance runner's per-cycle rebuild quadratic in run length. A
// column j of the definition matrix depends only on LIVE(t_j) for t_j
// the last writer of j, and extending the log never changes the
// reads-from closure of an existing transaction, so columns of objects
// not written by the new suffix are unchanged.
type LogRebuilder struct {
	n          int
	m          *Matrix
	log        []Commit
	lastWriter []int // -1 = t0
	readsFrom  [][]int
	writerAt   []map[int]bool
	lastWrite  []Cycle
	// Scratch for the LIVE closure walk.
	mark  []int
	epoch int
	stack []int
}

// NewLogRebuilder returns a rebuilder over an empty log (the cycle-0
// matrix).
func NewLogRebuilder(n int) *LogRebuilder {
	rb := &LogRebuilder{
		n:          n,
		m:          NewMatrix(n),
		lastWriter: make([]int, n),
		lastWrite:  make([]Cycle, n),
	}
	for j := range rb.lastWriter {
		rb.lastWriter[j] = -1
	}
	return rb
}

// Matrix returns the live definition matrix. Callers must not mutate
// it; it changes on the next Extend.
func (rb *LogRebuilder) Matrix() *Matrix { return rb.m }

// Len reports how many commits have been folded in.
func (rb *LogRebuilder) Len() int { return len(rb.log) }

// LastWrite reports the commit cycle of the last write to object j
// (0 = only t0 wrote it) — the exact V the vector protocols maintain.
func (rb *LogRebuilder) LastWrite(j int) Cycle { return rb.lastWrite[j] }

// Extend folds a suffix of newly committed transactions into the
// matrix and returns the sorted distinct objects whose columns were
// recomputed — exactly the union of the new write sets. All other
// columns are untouched, so a differential check after Extend only
// needs to compare the returned columns (earlier calls vouched for the
// rest).
func (rb *LogRebuilder) Extend(commits []Commit) []int {
	changedSet := map[int]bool{}
	for _, c := range commits {
		t := len(rb.log)
		rb.log = append(rb.log, c)
		var rf []int
		for _, k := range c.ReadSet {
			rf = append(rf, rb.lastWriter[k])
		}
		rb.readsFrom = append(rb.readsFrom, rf)
		wa := make(map[int]bool, len(c.WriteSet))
		for _, j := range c.WriteSet {
			wa[j] = true
		}
		rb.writerAt = append(rb.writerAt, wa)
		for _, j := range c.WriteSet {
			rb.lastWriter[j] = t
			if c.Cycle > rb.lastWrite[j] {
				rb.lastWrite[j] = c.Cycle
			}
			changedSet[j] = true
		}
	}
	changed := make([]int, 0, len(changedSet))
	for j := range changedSet {
		changed = append(changed, j)
	}
	sort.Ints(changed)
	for _, j := range changed {
		rb.rebuildColumn(j)
	}
	return changed
}

// rebuildColumn recomputes column j from the definition: the latest
// commit cycle among LIVE(lastWriter[j]) transactions writing each row.
func (rb *LogRebuilder) rebuildColumn(j int) {
	col := rb.m.rewrite([]int{j})
	clear(col)
	tj := rb.lastWriter[j]
	if tj < 0 {
		return
	}
	if rb.mark == nil {
		rb.mark = make([]int, 0)
	}
	if len(rb.mark) < len(rb.log) {
		rb.mark = append(rb.mark, make([]int, len(rb.log)-len(rb.mark))...)
	}
	rb.epoch++
	rb.stack = append(rb.stack[:0], tj)
	rb.mark[tj] = rb.epoch
	for len(rb.stack) > 0 {
		t := rb.stack[len(rb.stack)-1]
		rb.stack = rb.stack[:len(rb.stack)-1]
		for i := range rb.writerAt[t] {
			if rb.log[t].Cycle > col[i] {
				col[i] = rb.log[t].Cycle
			}
		}
		for _, w := range rb.readsFrom[t] {
			if w >= 0 && rb.mark[w] != rb.epoch {
				rb.mark[w] = rb.epoch
				rb.stack = append(rb.stack, w)
			}
		}
	}
}

// DiffCols locates the first differing entry between the two matrices
// restricted to the given columns — the incremental companion of Diff
// for callers that know which columns could have changed. A dimension
// mismatch reports (-1, -1, true).
func (m *Matrix) DiffCols(o *Matrix, cols []int) (i, j int, ok bool) {
	if m.n != o.n {
		return -1, -1, true
	}
	for _, j := range cols {
		m.check(j)
		col, ocol := m.cols[j], o.cols[j]
		if sameColumn(col, ocol) {
			continue
		}
		for i, v := range col {
			if v != ocol[i] {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// sameColumn reports whether two columns alias the same backing array —
// the copy-on-write invariant makes aliased columns identical without
// an entry scan.
func sameColumn(a, b []Cycle) bool {
	return len(a) > 0 && len(b) == len(a) && &a[0] == &b[0]
}
