package cmatrix

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestClassRecyclingMatchesDense reads, in most commits, a class that
// dies in the same commit — depColumn hands its column out as it lies
// while install frees it — among remote applies, regroups and publishes,
// and holds the model's invariants (dense C, projected MC, reference
// counts, free list) after every commit.
func TestClassRecyclingMatchesDense(t *testing.T) {
	const n, commits = 64, 300
	for _, g := range []int{1, 4, n} {
		t.Run(fmt.Sprintf("g=%d", g), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g)))
			m := newGroupedModel(UniformPartition(n, g))
			cm, died := m.gc.cm, 0
			for c := Cycle(1); c <= commits; c++ {
				if rng.Intn(100) == 0 {
					m.regroup(randomPartition(rng, n))
				}
				commit, dying := randomCommit(rng, n, c), (*colClass)(nil)
				if j := commit.WriteSet[0]; rng.Intn(3) != 0 && cm.class[j] != nil {
					dying = cm.class[j]
					// Write every column of j's class and read j: the class
					// dies in the commit that reads it.
					for k, cls := range cm.class {
						if cls == dying && k != j && len(commit.WriteSet) < 8 {
							commit.WriteSet = append(commit.WriteSet, k)
						}
					}
					commit.ReadSet = append(commit.ReadSet, j)
				}
				m.apply(commit, rng.Intn(10) == 0)
				if dying != nil && dying.refs == 0 {
					died++
				}
				if rng.Intn(5) == 0 {
					m.publish()
				}
				m.check(t, "commit %d", c)
			}
			if died < commits/4 {
				t.Fatalf("only %d of %d commits read a class they killed", died, commits)
			}
			m.checkPublished(t, "end of stream")
		})
	}
}
