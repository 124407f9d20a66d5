package experiments

import (
	"testing"

	"broadcastcc/internal/protocol"
)

// TestFaultAblationDeterministicAcrossParallelism: the lossy-air figure
// must produce byte-identical tables sequentially and under the worker
// pool — the fault schedule is a pure function of (FaultSeed, client,
// cycle), so parallelism cannot perturb it.
func TestFaultAblationDeterministicAcrossParallelism(t *testing.T) {
	seqOpt := parallelQuick()
	seqOpt.Parallelism = 1
	parOpt := parallelQuick()
	parOpt.Parallelism = 4

	seq, err := ByID("faults", seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ByID("faults", parOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{ResponseTime, RestartRatio} {
		st, pt := seq.Table(m), par.Table(m)
		if st != pt {
			t.Errorf("faults [%s]: tables differ\nsequential:\n%s\nparallel:\n%s", m.label(), st, pt)
		}
	}

	if seq.Metric() != RestartRatio {
		t.Error("the faults figure plots the restart ratio")
	}
	// FaultAblation fixes its own algorithm set (the ideal F-Matrix-No
	// broadcasts no control information and cannot face a lossy air).
	want := []string{protocol.Datacycle.String(), protocol.RMatrix.String(), protocol.FMatrix.String()}
	if len(seq.Labels) != len(want) {
		t.Fatalf("labels = %v, want %v", seq.Labels, want)
	}
	for i := range want {
		if seq.Labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", seq.Labels, want)
		}
	}

	// Reception faults stretch transactions across more cycles, so the
	// F-Matrix response time must rise from the clean to the lossiest
	// point.
	xs, ys, err := seq.seriesOf(protocol.FMatrix.String(), ResponseTime)
	if err != nil {
		t.Fatal(err)
	}
	if xs[0] != 0 {
		t.Fatalf("first point x = %g, want the fault-free baseline 0", xs[0])
	}
	if ys[len(ys)-1] <= ys[0] {
		t.Errorf("F-Matrix response at loss=%g (%.4g) not above fault-free (%.4g)",
			xs[len(xs)-1], ys[len(ys)-1], ys[0])
	}
}

// TestFaultAblationByID: the figure dispatches by its id.
func TestFaultAblationByID(t *testing.T) {
	opt := parallelQuick()
	opt.Txns = 20
	opt.MeasureFrom = 5
	e, err := ByID("faults", opt)
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "faults" || len(e.Points) == 0 {
		t.Fatalf("ByID returned %+v", e)
	}
}
