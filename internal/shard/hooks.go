package shard

// Test hook, following the server.SetTraceSkewVector idiom: a
// package-global toggle flipped by differential tests to prove the
// harness catches the defect class, never set in production paths.

// alignmentSkip, when true, disables the cross-shard cycle-alignment
// check on multi-shard read-only commits. The per-shard Theorem 1/2
// validation still runs, so the resulting defect is exactly the subtle
// one the alignment check exists to stop: each shard's reads are
// individually consistent but no single serialization point admits
// them all. Conformance uses this hook to pin a counterexample showing
// the sharded acceptance escaping the F-Matrix lattice.
var alignmentSkip bool

// SetAlignmentSkip toggles the alignment-skip fault and returns a
// restore function. Tests must call restore (typically via defer).
func SetAlignmentSkip(on bool) (restore func()) {
	prev := alignmentSkip
	alignmentSkip = on
	return func() { alignmentSkip = prev }
}

// AlignmentSkipped reports whether the alignment-skip fault is active,
// so the conformance oracle's offline re-validation models the same
// (possibly faulted) acceptance rule the Router applies on the air.
func AlignmentSkipped() bool { return alignmentSkip }
