package cmatrix

// Control is the mutable server-side control-information state behind a
// representation-independent interface: the dense n×n matrix, the
// length-n vector and the grouped n×g matrix (the exact C at singleton
// groups) are swappable. Apply folds one committed update transaction
// (Theorem 2); Snapshot returns an immutable view of the state as of
// this instant, cheap enough to take every broadcast cycle.
type Control interface {
	// N reports the number of objects.
	N() int
	// Apply folds one committed transaction occurring next in the
	// update serialization order.
	Apply(readSet, writeSet []int, commitCycle Cycle)
	// ApplyRemote folds one committed transaction whose read set is not
	// fully visible to this control state — a cross-shard commit whose
	// reads touch objects outside this shard's object space. Theorem 2's
	// dep(i) = max_{k∈RS} C(i,k) cannot be evaluated locally, so the
	// rule degrades conservatively to the diagonal bound: each written
	// column takes commitCycle at write-set rows and the row's own
	// last-write cycle C(i,i) elsewhere. Since every column entry is
	// bounded by its row's diagonal (C(i,k) ≤ C(i,i) always), the
	// resulting state dominates (≥ pointwise) the global matrix
	// restricted to this shard, keeping the read-condition sound —
	// remote-written columns degrade to exactly the Theorem 1 vector
	// bound per entry, no further. Commits whose reads are entirely
	// local must use Apply, which keeps k=1 sharding exactly the
	// unsharded protocol.
	ApplyRemote(writeSet []int, commitCycle Cycle)
	// Snapshot returns an immutable view; later Applies never change it.
	Snapshot() ControlSnapshot
}

// ControlSnapshot is one cycle's published control information.
// Bound(i, j) is the value the read-condition compares against a prior
// read of object i when the transaction now reads object j — C(i,j)
// for matrix representations, MC(i, group(j)) for grouped ones, V(i)
// for the vector.
type ControlSnapshot interface {
	N() int
	Bound(i, j int) Cycle
}

// Bound implements ControlSnapshot on *Matrix with the full-precision
// entry C(i, j).
func (m *Matrix) Bound(i, j int) Cycle { return m.At(i, j) }

// Bound implements ControlSnapshot on *Vector: the one-partition
// reduction ignores which object is being read.
func (v *Vector) Bound(i, _ int) Cycle { return v.At(i) }

// DenseControl adapts the dense column-major *Matrix to Control —
// the F-Matrix representation for moderate n.
type DenseControl struct {
	m *Matrix
}

// NewDenseControl returns the cycle-0 dense control state.
func NewDenseControl(n int) *DenseControl { return &DenseControl{m: NewMatrix(n)} }

// N implements Control.
func (d *DenseControl) N() int { return d.m.N() }

// Matrix exposes the live matrix (callers must treat snapshots as
// immutable and mutate only through Apply).
func (d *DenseControl) Matrix() *Matrix { return d.m }

// Apply implements Control.
func (d *DenseControl) Apply(readSet, writeSet []int, commitCycle Cycle) {
	d.m.Apply(readSet, writeSet, commitCycle)
}

// ApplyRemote implements Control.
func (d *DenseControl) ApplyRemote(writeSet []int, commitCycle Cycle) {
	d.m.ApplyRemote(writeSet, commitCycle)
}

// Snapshot implements Control via the copy-on-write column snapshot.
func (d *DenseControl) Snapshot() ControlSnapshot { return d.m.Snapshot() }

// VectorControl adapts *Vector to Control — the g=1 reduction used by
// R-Matrix and Datacycle. Apply ignores the read set.
type VectorControl struct {
	v *Vector
}

// NewVectorControl returns the cycle-0 vector control state.
func NewVectorControl(n int) *VectorControl { return &VectorControl{v: NewVector(n)} }

// N implements Control.
func (c *VectorControl) N() int { return c.v.N() }

// Vector exposes the live vector.
func (c *VectorControl) Vector() *Vector { return c.v }

// Apply implements Control.
func (c *VectorControl) Apply(_, writeSet []int, commitCycle Cycle) {
	c.v.Apply(writeSet, commitCycle)
}

// ApplyRemote implements Control. The vector already ignores read
// sets — V(j) is exactly the commit cycle of j's last writer — so the
// conservative rule coincides with Apply and sharding loses nothing.
func (c *VectorControl) ApplyRemote(writeSet []int, commitCycle Cycle) {
	c.v.Apply(writeSet, commitCycle)
}

// Snapshot implements Control with a deep copy (O(n)).
func (c *VectorControl) Snapshot() ControlSnapshot { return c.v.Clone() }
