package cmatrix

// Test hooks, following the protocol.SetLooseReadCondition idiom:
// package-global toggles flipped by differential tests to prove the
// harness catches the defect class, never set in production paths.

// groupedStaleMC, when true, makes GroupedControl skip the lower step
// of a commit: no count ever reaches 0, nothing is repaired, and each
// MC column degrades to the naive monotone update mc[s] = max(old, new)
// — the "obvious" incremental maintenance that is wrong because Theorem
// 2's column rewrites can decrease a group maximum. The resulting MC is
// a stale upper bound: still safe (it only over-rejects) but no longer
// the matrix Theorem 2 defines, which the conformance harness must
// catch via the grouped server's control verification and shrink to a
// corpus pin.
var groupedStaleMC bool

// SetGroupedStaleMC toggles the stale-MC fault and returns a restore
// function. Tests must call restore (typically via defer).
func SetGroupedStaleMC(on bool) (restore func()) {
	prev := groupedStaleMC
	groupedStaleMC = on
	return func() { groupedStaleMC = prev }
}
