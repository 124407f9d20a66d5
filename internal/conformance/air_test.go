package conformance

import (
	"testing"

	"broadcastcc/internal/cmatrix"
)

// Every air-program workload over the correct implementations must pass
// the wire-level rebroadcast check alongside the acceptance lattice.
func TestAirProgramSoakClean(t *testing.T) {
	p := DefaultParams()
	p.Air = 1
	n := 120
	if testing.Short() {
		n = 30
	}
	seed, rep, clean, found, err := Soak(1, n, p)
	if err != nil {
		t.Fatalf("soak error at seed %d after %d clean seeds: %v", seed, clean, err)
	}
	if found {
		t.Fatalf("seed %d violates conformance after %d clean seeds: %v", seed, clean, rep.Violations[0])
	}
}

// The rebroadcast oracle is differential against the commit log, not the
// server snapshot it encodes from: a server that keeps broadcasting a
// stale column after a commit — exactly what a delta-chain bug looks
// like on the air — must be flagged at the first drifted occurrence.
func TestAirRebroadcastDetectsStaleColumn(t *testing.T) {
	w := &Workload{
		Objects: 2,
		Cycles:  2,
		Air:     &AirProgram{Disks: 1, RefreshEvery: 2},
	}
	log := []cmatrix.Commit{{WriteSet: []int{0}, Cycle: 1}}
	fresh := cmatrix.FromLog(w.Objects, nil)
	snaps := []cycleSnap{
		{},           // cycle numbers are 1-based
		{mat: fresh}, // cycle 1: nothing committed yet — correct
		{mat: fresh}, // cycle 2: still pre-commit — stale on the air
	}
	vs, err := checkAirProgram(w, log, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("stale rebroadcast column not detected")
	}
	if vs[0].Kind != KindAirRebroadcast {
		t.Fatalf("violation kind = %s, want %s", vs[0].Kind, KindAirRebroadcast)
	}

	// With the snapshots actually reflecting the commit the same run is
	// clean, so the detection above is not a harness artifact.
	snaps[2].mat = cmatrix.FromLog(w.Objects, log)
	vs, err = checkAirProgram(w, log, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("clean rebroadcast flagged: %v", vs[0])
	}
}

// A violation in the protocol layer must shrink past the air program:
// the shrinker drops the airsched layer when it is not needed to
// reproduce, so counterexamples name the layer actually at fault.
func TestShrinkDropsIrrelevantAirProgram(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	p.Air = 1
	_, rep, found, err := soakWith(DefectLooseRead, 1, 500, p)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("loosened read-condition not caught within 500 seeds")
	}
	if rep.Workload.Air == nil {
		t.Fatal("generator did not attach an air program at Air=1")
	}
	shrunk, srep := Shrink(rep.Workload)
	if srep == nil || len(srep.Violations) == 0 {
		t.Fatal("shrinking lost the violation")
	}
	if shrunk.Air != nil {
		t.Fatalf("shrunk counterexample still carries an air program: %+v", shrunk.Air)
	}
}

func TestAirProgramValidation(t *testing.T) {
	bad := []AirProgram{
		{Disks: 0},
		{Disks: maxDisks + 1},
		{Disks: 1, IndexM: -1},
		{Disks: 1, Skew: -0.1},
		{Disks: 1, Skew: maxSkew + 1},
		{Disks: 1, RefreshEvery: -2},
	}
	for i, a := range bad {
		w := &Workload{Objects: 4, Cycles: 4, Air: &a}
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: air program %+v should be rejected", i, a)
		}
	}
	good := &Workload{Objects: 4, Cycles: 4, Air: &AirProgram{Disks: 3, IndexM: 4, Skew: 0.95, RefreshEvery: 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid air program rejected: %v", err)
	}
}
