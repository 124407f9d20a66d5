// Package cmatrix implements the control information broadcast alongside
// data in the paper's protocols (Section 3.2): the full n×n F-Matrix C,
// its incremental maintenance rule (Theorem 2), the grouped n×g matrix
// MC(i,s) = max_{j∈s} C(i,j), the length-n vector used by R-Matrix and
// Datacycle (the g=1 case), and the wrapped (modulo max_cycles)
// timestamp encoding that bounds each entry to a fixed number of bits.
package cmatrix

import (
	"fmt"
	"slices"
	"strings"
)

// Cycle is a broadcast cycle number. Cycle 0 is the paper's virtual
// cycle in which the initial transaction t0 wrote every object; real
// broadcast cycles start at 1.
type Cycle int64

// Matrix is the F-Matrix control information: an n×n matrix where
// entry (i, j) is the latest commit cycle of any transaction that
// affects the latest committed value of object j and also wrote
// object i — 0 when only t0 did.
//
// Storage is column-major (one slice per column) because Theorem 2's
// incremental rule only ever rewrites whole columns — the columns of
// the transaction's write set, all to the same values — which makes
// both Apply and the copy-on-write Snapshot column-granular: a commit
// stores one column, which every column of its write set shares; a
// snapshot shares every column with the live matrix, and a column a
// snapshot has seen is never written again.
type Matrix struct {
	n    int
	cols [][]Cycle // column-major: cols[j][i] = C(i, j)
	// Columns one commit wrote share one stored column: cols[j] lies in
	// entry own[j], refs[s] counts the columns in entry s, and at[s] is
	// snaps as of its last write — below snaps once a snapshot saw it.
	// free lists the unused entries. All are nil until the first write.
	own, refs, free []int32
	at              []uint64
	// snaps counts the Snapshots taken of this matrix; a snapshot starts
	// at 1, so every column it was handed counts as seen.
	snaps uint64
	// Scratch buffer reused across Apply calls; owned exclusively by
	// this matrix (Clone and Snapshot never carry it over).
	dep []Cycle
}

// NewMatrix returns the cycle-0 matrix over n objects (all entries 0).
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("cmatrix: matrix needs n > 0, got %d", n))
	}
	backing := make([]Cycle, n*n)
	cols := make([][]Cycle, n)
	for j := range cols {
		cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	return &Matrix{n: n, cols: cols}
}

// N reports the number of objects.
func (m *Matrix) N() int { return m.n }

// At returns C(i, j).
func (m *Matrix) At(i, j int) Cycle {
	m.check(i)
	m.check(j)
	return m.cols[j][i]
}

// Column returns a copy of column j — the control information broadcast
// immediately after object j in each cycle.
func (m *Matrix) Column(j int) []Cycle {
	return append([]Cycle(nil), m.Col(j)...)
}

// Col returns column j itself, Col(j)[i] = C(i, j), for readers that
// walk a matrix without keeping anything (the wire encoder, a hash).
// The slice belongs to the matrix and, copy-on-write, to its snapshots:
// callers must not write to it, and keep it only as long as the matrix
// is one nobody applies to (a published snapshot, a decoded cycle).
func (m *Matrix) Col(j int) []Cycle {
	m.check(j)
	return m.cols[j]
}

// Clone returns a deep copy sharing no storage with the receiver.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	for j, col := range m.cols {
		copy(c.cols[j], col)
	}
	return c
}

// Snapshot returns a copy-on-write snapshot: an immutable view of the
// matrix at this instant that shares every column with the live matrix.
// Taking it costs O(n) (the column headers) instead of Clone's O(n²); a
// later Apply on the live matrix stores its write-set column afresh
// (O(n) per commit) so the snapshot never changes.
func (m *Matrix) Snapshot() *Matrix {
	m.snaps++
	return &Matrix{n: m.n, cols: slices.Clone(m.cols), snaps: 1}
}

func (m *Matrix) check(i int) {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("cmatrix: object %d out of range [0,%d)", i, m.n))
	}
}

// table gives each column an entry of its own at the first write, last
// written at snaps 0: unseen in a matrix that owns its columns, seen in
// a snapshot and once the matrix has been snapshotted.
func (m *Matrix) table() {
	if m.own == nil {
		m.own, m.refs, m.free = make([]int32, m.n), make([]int32, m.n), make([]int32, 0, m.n)
		m.at = make([]uint64, m.n)
		for j := range m.own {
			m.own[j], m.refs[j] = int32(j), 1
		}
	}
}

// rewrite points every column of ws at one stored column and returns it
// for the caller to fill whole: the first ws empties if no snapshot has
// seen it, else a fresh one. A column ws repeats leaves its entry once.
// Were all n entries in use, ws would empty one, so free is never empty.
func (m *Matrix) rewrite(ws []int) []Cycle {
	m.table()
	s, col := int32(-1), []Cycle(nil)
	for _, j := range ws {
		if e := m.own[j]; e >= 0 { // else a repeat: j has left already
			m.own[j] = -1
			if m.refs[e]--; m.refs[e] > 0 {
				continue
			}
			if s < 0 && m.at[e] == m.snaps {
				s, col = e, m.cols[j]
			} else {
				m.free = append(m.free, e)
			}
		}
	}
	if s < 0 {
		s, col = m.free[len(m.free)-1], make([]Cycle, m.n)
		m.free = m.free[:len(m.free)-1]
	}
	m.at[s] = m.snaps
	for _, j := range ws {
		if m.own[j] < 0 {
			m.own[j], m.cols[j] = s, col
			m.refs[s]++
		}
	}
	return col
}

// Apply folds one committed transaction into the matrix per the
// incremental rule of Theorem 2. The transaction read the objects in
// readSet, wrote the objects in writeSet, occurs next in the update
// serialization order, and committed during commitCycle:
//
//   - C(i,j) = commitCycle          if i, j ∈ WS
//   - C(i,j) = max_{k∈RS} Cold(i,k) if i ∉ WS, j ∈ WS (0 if RS empty)
//   - unchanged                     otherwise.
func (m *Matrix) Apply(readSet, writeSet []int, commitCycle Cycle) {
	if len(writeSet) == 0 {
		return // read-only transactions never touch the matrix
	}
	// dep[i] = max_{k∈RS} Cold(i,k), computed against the old matrix
	// before any column is overwritten.
	dep := m.scratch()
	clear(dep)
	for _, k := range readSet {
		m.check(k)
		for i, v := range m.cols[k] {
			dep[i] = max(dep[i], v)
		}
	}
	m.writeColumns(dep, writeSet, commitCycle)
}

// ApplyRemote folds one committed transaction whose read set is not
// fully visible to this matrix (a cross-shard commit): dep(i) =
// max_{k∈RS} Cold(i,k) cannot be evaluated, but every column entry is
// bounded by its row's diagonal — Cold(i,k) ≤ Cold(i,i), since C(i,·)
// only ever holds values stamped at or before object i's last write —
// so the written columns take commitCycle at write-set rows and the old
// diagonal Cold(i,i) elsewhere. That is exactly the Theorem 1 vector
// bound per entry: the state still dominates (≥ pointwise) the true
// matrix, keeping the read-condition sound, while rows of never-written
// objects stay zero and the diagonal stays exact.
func (m *Matrix) ApplyRemote(writeSet []int, commitCycle Cycle) {
	if len(writeSet) == 0 {
		return
	}
	// dep[i] = Cold(i,i), read before any column is overwritten.
	dep := m.scratch()
	for i := range dep {
		dep[i] = m.cols[i][i]
	}
	m.writeColumns(dep, writeSet, commitCycle)
}

// scratch returns the matrix's own length-n Apply buffer.
func (m *Matrix) scratch() []Cycle {
	if m.dep == nil {
		m.dep = make([]Cycle, m.n)
	}
	return m.dep
}

// writeColumns sets every write-set column to dep, except at the
// write-set rows, which take commitCycle. It overwrites dep's entries
// at those rows.
func (m *Matrix) writeColumns(dep []Cycle, writeSet []int, commitCycle Cycle) {
	for _, i := range writeSet {
		m.check(i)
		dep[i] = commitCycle
	}
	copy(m.rewrite(writeSet), dep)
}

// Equal reports whether two matrices have identical dimensions and
// entries.
func (m *Matrix) Equal(o *Matrix) bool {
	_, _, differ := m.Diff(o)
	return !differ
}

// Diff locates the first entry (scanning columns, then rows) where the
// two matrices differ, for diagnostics in differential checks. It
// reports ok=false when the matrices are equal; a dimension mismatch is
// reported as (-1, -1, true).
func (m *Matrix) Diff(o *Matrix) (i, j int, ok bool) {
	if m.n != o.n {
		return -1, -1, true
	}
	for j, col := range m.cols {
		ocol := o.cols[j]
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

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	b.Grow(m.n * (m.n*4 + 1))
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			fmt.Fprintf(&b, "%4d", m.cols[j][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MatrixFromColumns reconstructs a matrix from per-column entries,
// cols[j][i] = C(i, j) — the shape the broadcast wire format carries.
// The matrix shares no storage with cols.
func MatrixFromColumns(cols [][]Cycle) (*Matrix, error) {
	m, err := MatrixOver(cols)
	if err != nil {
		return nil, err
	}
	return m.Clone(), nil
}

// MatrixOver is MatrixFromColumns without the copy: the matrix adopts
// cols and every column in it, so a decoder that filled them off a
// frame pays for the n² entries once. The caller gives cols up.
func MatrixOver(cols [][]Cycle) (*Matrix, error) {
	n := len(cols)
	if n == 0 {
		return nil, fmt.Errorf("cmatrix: no columns")
	}
	for j, col := range cols {
		if len(col) != n {
			return nil, fmt.Errorf("cmatrix: column %d has %d entries, want %d", j, len(col), n)
		}
	}
	return &Matrix{n: n, cols: cols}, nil
}

// Commit records one committed update transaction for FromLog.
type Commit struct {
	ReadSet  []int
	WriteSet []int
	Cycle    Cycle
}

// FromLog computes the C matrix directly from its definition — not the
// incremental rule — given the committed update transactions in
// serialization order: C(i,j) is the latest commit cycle among the
// transactions in LIVE(t_j) (t_j being the last writer of object j)
// that write object i, where LIVE is the transitive reads-from closure
// in the serial execution. It is the reference implementation the
// Theorem 2 property tests compare Apply against.
func FromLog(n int, log []Commit) *Matrix {
	m := NewMatrix(n)
	// lastWriter[j] = index into log of last transaction writing j; -1 = t0.
	lastWriter := make([]int, n)
	for j := range lastWriter {
		lastWriter[j] = -1
	}
	// readsFrom[t] = set of log indices (or -1 for t0) t read from.
	readsFrom := make([][]int, len(log))
	writerAt := make([]map[int]bool, len(log))
	for t, c := range log {
		for _, k := range c.ReadSet {
			readsFrom[t] = append(readsFrom[t], lastWriter[k])
		}
		writerAt[t] = map[int]bool{}
		for _, j := range c.WriteSet {
			writerAt[t][j] = true
		}
		for _, j := range c.WriteSet {
			lastWriter[j] = t
		}
	}
	live := func(t int) map[int]bool {
		out := map[int]bool{t: true}
		stack := []int{t}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range readsFrom[x] {
				if w >= 0 && !out[w] {
					out[w] = true
					stack = append(stack, w)
				}
			}
		}
		return out
	}
	for j := 0; j < n; j++ {
		tj := lastWriter[j]
		if tj < 0 {
			continue // column stays 0: only t0 affects object j
		}
		col := m.cols[j]
		for t := range live(tj) {
			for i := range writerAt[t] {
				if log[t].Cycle > col[i] {
					col[i] = log[t].Cycle
				}
			}
		}
	}
	return m
}
