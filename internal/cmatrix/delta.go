package cmatrix

import "fmt"

// DeltaEntry is one changed cell of a C matrix between two cycles.
type DeltaEntry struct {
	I, J  int
	Value Cycle
}

// Diff lists the entries of new that differ from old, in row-major
// order — the payload of the paper's proposed incremental control-
// information transmission (Section 3.2.1, future work). Columns the
// two matrices share through the copy-on-write snapshot mechanism are
// skipped without an entry scan, so diffing two successive cycle
// snapshots costs O(n + changed-columns · n) rather than O(n²).
func Diff(old, new *Matrix) ([]DeltaEntry, error) {
	if old.n != new.n {
		return nil, fmt.Errorf("cmatrix: diff of %d-object and %d-object matrices", old.n, new.n)
	}
	changed := make([]int, 0, old.n)
	for j := 0; j < old.n; j++ {
		if !sameColumn(old.cols[j], new.cols[j]) {
			changed = append(changed, j)
		}
	}
	var out []DeltaEntry
	for i := 0; i < old.n; i++ {
		for _, j := range changed {
			if v := new.cols[j][i]; v != old.cols[j][i] {
				out = append(out, DeltaEntry{I: i, J: j, Value: v})
			}
		}
	}
	return out, nil
}

// ApplyDelta overwrites the listed entries, turning the previous
// cycle's matrix into the current one. Columns shared with a snapshot
// or with another column are copied before being written.
func (m *Matrix) ApplyDelta(entries []DeltaEntry) error {
	for _, e := range entries {
		if e.I < 0 || e.I >= m.n || e.J < 0 || e.J >= m.n {
			return fmt.Errorf("cmatrix: delta entry (%d,%d) out of range for n=%d", e.I, e.J, m.n)
		}
		old := m.cols[e.J]
		if col := m.rewrite([]int{e.J}); !sameColumn(col, old) {
			copy(col, old)
		}
		m.cols[e.J][e.I] = e.Value
	}
	return nil
}
