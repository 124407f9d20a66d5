package conformance

import (
	"bytes"
	"testing"

	"broadcastcc/internal/obs"
)

// traceWorkload is a hand-built scenario with background commits and an
// accepted uplink update, so both servers emit cycle starts, snapshot
// publishes and an uplink verdict.
func traceWorkload() *Workload {
	return &Workload{
		Objects: 4,
		Cycles:  6,
		Commits: []PlannedCommit{{At: 2, WriteSet: []int{1}}},
		Clients: [][]PlannedTxn{{
			{Start: 1, Reads: []PlannedRead{{Obj: 0}, {Obj: 2, Step: 1}}, Writes: []int{0}, SubmitLag: 1},
			{Start: 3, Reads: []PlannedRead{{Obj: 3}}},
		}},
	}
}

// TestLockstepTracesAgree: the vector and matrix servers of a clean
// run emit the same cycle-clock event sequence once snapshot-publish
// events (whose Arg fingerprints the representation-dependent control
// payload) are filtered out — and the unfiltered traces genuinely
// differ, proving the modulo matters.
func TestLockstepTracesAgree(t *testing.T) {
	for _, seed := range []int64{1, 5, 23} {
		w := Generate(seed, DefaultParams())
		tr, err := runAir(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.vecTrace) == 0 || len(tr.matTrace) == 0 {
			t.Fatalf("seed %d: empty server trace (vec %d, mat %d events)", seed, len(tr.vecTrace), len(tr.matTrace))
		}
		for _, v := range tr.violations {
			if v.Kind == KindTraceDiverged {
				t.Fatalf("seed %d: clean workload diverged: %v", seed, v)
			}
		}
		fv := obs.EncodeTrace(traceModuloControl(tr.vecTrace))
		fm := obs.EncodeTrace(traceModuloControl(tr.matTrace))
		if !bytes.Equal(fv, fm) {
			t.Fatalf("seed %d: filtered traces differ", seed)
		}
		if bytes.Equal(obs.EncodeTrace(tr.vecTrace), obs.EncodeTrace(tr.matTrace)) {
			t.Fatalf("seed %d: unfiltered traces identical — control fingerprints should differ between vector and matrix", seed)
		}
	}
}

// TestTraceSkewCaughtAndShrunk: an intentionally corrupted uplink
// verdict in the vector server's trace (DefectTraceSkew — a pure trace
// divergence, no data-plane change, so nothing else in the oracle can
// catch it) must surface as a cycle-trace-divergence violation, survive
// shrinking, and disappear once the defect is cleared.
func TestTraceSkewCaughtAndShrunk(t *testing.T) {
	t.Parallel()
	w := traceWorkload()
	w.Defect = DefectTraceSkew
	rep, err := CheckWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == KindTraceDiverged {
			found = true
		} else {
			t.Errorf("unexpected extra violation: %v", v)
		}
	}
	if !found {
		t.Fatalf("skewed uplink verdict not caught; violations: %v", rep.Violations)
	}

	shrunk, srep := Shrink(w)
	if srep == nil || len(srep.Violations) == 0 {
		t.Fatal("shrinking lost the trace-divergence violation")
	}
	if srep.Violations[0].Kind != KindTraceDiverged {
		t.Fatalf("shrunk violation kind = %s, want %s", srep.Violations[0].Kind, KindTraceDiverged)
	}
	// The divergence needs exactly one accepted-or-rejected uplink; the
	// shrinker must strip everything else.
	if got := shrunk.TxnCount(); got > 1 {
		t.Errorf("shrunk counterexample has %d transactions, want 1", got)
	}
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunk workload no longer validates: %v", err)
	}
	if err := Replay(&Counterexample{Violation: KindTraceDiverged, Workload: shrunk}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCapacityNoDrops: the biggest workload the generator emits
// must fit the trace ring runAir sizes — a dropped event would turn
// the lockstep comparison into a false alarm, so overflow is a hard
// error instead.
func TestTraceCapacityNoDrops(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		w := Generate(seed, DefaultParams())
		if _, err := runAir(w); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
