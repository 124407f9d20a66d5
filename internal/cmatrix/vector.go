package cmatrix

import "fmt"

// Vector is the one-partition reduction of the C matrix used by
// R-Matrix and Datacycle (Section 3.2.2): V(i) is the latest cycle in
// which a committed value was written to object i. It equals
// max_j C(i,j) of the full matrix.
type Vector struct {
	v []Cycle
}

// NewVector returns the cycle-0 vector over n objects.
func NewVector(n int) *Vector {
	if n <= 0 {
		panic(fmt.Sprintf("cmatrix: vector needs n > 0, got %d", n))
	}
	return &Vector{v: make([]Cycle, n)}
}

// N reports the number of objects.
func (v *Vector) N() int { return len(v.v) }

// At returns V(i).
func (v *Vector) At(i int) Cycle { return v.v[i] }

// Apply folds one committed transaction into the vector: every written
// object's entry becomes the commit cycle.
func (v *Vector) Apply(writeSet []int, commitCycle Cycle) {
	for _, i := range writeSet {
		if i < 0 || i >= len(v.v) {
			panic(fmt.Sprintf("cmatrix: object %d out of range [0,%d)", i, len(v.v)))
		}
		v.v[i] = commitCycle
	}
}

// Clone returns a deep copy (the per-cycle snapshot).
func (v *Vector) Clone() *Vector {
	c := make([]Cycle, len(v.v))
	copy(c, v.v)
	return &Vector{v: c}
}

// VectorFromEntries reconstructs a vector from raw entries (a copy is
// taken).
func VectorFromEntries(entries []Cycle) (*Vector, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("cmatrix: no entries")
	}
	return &Vector{v: append([]Cycle(nil), entries...)}, nil
}

// VectorOf projects a full C matrix to the one-partition vector:
// V(i) = max_j C(i,j).
func VectorOf(m *Matrix) *Vector {
	v := NewVector(m.N())
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if x := m.At(i, j); x > v.v[i] {
				v.v[i] = x
			}
		}
	}
	return v
}

// Partition assigns each of n objects to one of g groups for the
// generalized n×g matrix of Section 3.2.2.
type Partition struct {
	groups int
	of     []int // of[j] = group of object j
}

// NewPartition builds a partition from an explicit assignment; group
// ids must be dense in [0, groups).
func NewPartition(groups int, of []int) *Partition {
	if groups <= 0 {
		panic("cmatrix: partition needs groups > 0")
	}
	for j, g := range of {
		if g < 0 || g >= groups {
			panic(fmt.Sprintf("cmatrix: object %d assigned to group %d out of range [0,%d)", j, g, groups))
		}
	}
	return &Partition{groups: groups, of: append([]int(nil), of...)}
}

// UniformPartition splits n objects into g contiguous groups of
// near-equal size; g=n gives singleton groups (F-Matrix), g=1 gives the
// single partition (R-Matrix / Datacycle).
func UniformPartition(n, g int) *Partition {
	if g <= 0 || g > n {
		panic(fmt.Sprintf("cmatrix: group count %d out of range [1,%d]", g, n))
	}
	of := make([]int, n)
	for j := 0; j < n; j++ {
		of[j] = j * g / n
	}
	return &Partition{groups: g, of: of}
}

// Groups reports the number of groups.
func (p *Partition) Groups() int { return p.groups }

// N reports the number of objects partitioned.
func (p *Partition) N() int { return len(p.of) }

// GroupOf reports the group that object j belongs to.
func (p *Partition) GroupOf(j int) int { return p.of[j] }

// Equal reports whether two partitions assign every object identically.
func (p *Partition) Equal(o *Partition) bool {
	if p.groups != o.groups || len(p.of) != len(o.of) {
		return false
	}
	for j, g := range p.of {
		if o.of[j] != g {
			return false
		}
	}
	return true
}
