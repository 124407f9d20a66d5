package experiments

import (
	"reflect"
	"testing"
)

// TestCursorKeepsPlannedSets pins the invariant all three replay
// studies rely on: however often a transaction restarts — on a read or
// at commit — the k-th transaction reads the k-th planned set, from its
// first object, and reset runs once per ended attempt.
func TestCursorKeepsPlannedSets(t *testing.T) {
	txns := [][]int{{10, 11, 12}, {20, 21}, {30}}
	c := cursor{txns: txns}

	// Transaction 0 restarts three times — on its 2nd read, at commit,
	// on its 1st read — and transaction 1 once, on its 2nd read.
	failRead := map[int]int{0: 1, 2: 0, 4: 1} // attempt -> failing position
	failCommit := map[int]bool{1: true}

	var reads []int
	var got [][]int
	attempt, resets, commits, restarts := 0, 0, 0, 0
	for cycle := 0; cycle < 64; cycle++ {
		pos := len(reads)
		committed, restarted := c.step(
			func(obj int) bool {
				if p, ok := failRead[attempt]; ok && p == pos {
					return false
				}
				reads = append(reads, obj)
				return true
			},
			func() bool { return !failCommit[attempt] },
			func() { resets++ })
		if committed && restarted {
			t.Fatal("a step both committed and restarted")
		}
		if committed {
			got = append(got, reads)
			commits++
		}
		if restarted {
			restarts++
		}
		if committed || restarted {
			reads = nil
			attempt++
		}
	}
	if !reflect.DeepEqual(got, txns) {
		t.Errorf("committed read sets %v, want the planned %v", got, txns)
	}
	if commits != 3 || restarts != 4 || resets != commits+restarts {
		t.Errorf("commits=%d restarts=%d resets=%d, want 3, 4, 7", commits, restarts, resets)
	}
	// The plan is exhausted: further steps are no-ops.
	if committed, restarted := c.step(nil, nil, nil); committed || restarted {
		t.Error("step past the last planned transaction did something")
	}
}

func TestPickDistinct(t *testing.T) {
	seq := []int{4, 4, 2, 4, 2, 9, 7}
	i := 0
	got := pickDistinct(3, func() int { i++; return seq[i-1] })
	if want := []int{4, 2, 9}; !reflect.DeepEqual(got, want) || i != 6 {
		t.Errorf("pickDistinct = %v after %d draws, want %v after 6", got, i, want)
	}
}
