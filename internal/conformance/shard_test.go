package conformance

import "testing"

// forceShards pins the sharded participant's shard count, clamped so
// the workload stays valid (a shard cannot be empty of objects).
func forceShards(w *Workload, k int) *Workload {
	c := w.Clone()
	c.Shards = min(k, c.Objects)
	return c
}

// The sharded-deployment acceptance criterion: across a large seeded
// sweep, the k-shard fleet driven in lockstep against the single
// logical server — identical commit stream, identical uplink
// transactions — produces identical verdicts, dominated control and an
// acceptance inside the F-Matrix lattice, at every k in {1, 2, 4}.
func TestShardLockstepSweep(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 120
	}
	ks := []int{1, 2, 4}
	for i := 0; i < n; i++ {
		seed := 70_000 + int64(i)
		w := forceShards(Generate(seed, DefaultParams()), ks[i%len(ks)])
		rep, err := CheckWorkload(w)
		if err != nil {
			t.Fatalf("seed %d shards %d: %v", seed, w.Shards, err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d shards %d violates conformance: %v", seed, w.Shards, rep.Violations[0])
		}
	}
}

// Every committed corpus pin, its defect cleared, must also replay clean
// through the sharded participant at every k in {1, 2, 4} — most pins
// predate sharding, so this is the regression gate for re-driving old
// counterexamples through the fleet.
func TestCorpusReplayShardForced(t *testing.T) {
	corpus, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("committed corpus is empty")
	}
	for name, ce := range corpus {
		for _, k := range []int{1, 2, 4} {
			forced := *ce
			forced.Workload = forceShards(ce.Workload, k)
			forced.Workload.Defect = DefectNone
			if err := Replay(&forced); err != nil {
				t.Errorf("%s at %d shards: %v", name, k, err)
			}
		}
	}
}

// The sharded acceptance-criterion test: with the cross-shard
// cycle-alignment check dropped (DefectAlignmentSkip), each shard's
// reads stay individually consistent but no single serialization point
// admits them all — the exact defect class the check exists to stop.
// The soak must catch the escape from the F-Matrix lattice, the
// shrinker must keep the multi-shard deployment (collapsing to k <= 1
// makes the fault vanish), and the counterexample must replay broken
// under the defect and clean without it.
func TestShardAlignmentSkipCaught(t *testing.T) {
	t.Parallel()
	var rep *Report
	var seed int64
	for s := int64(1); s <= 2000; s++ {
		w := forceShards(Generate(s, DefaultParams()), []int{2, 4}[s%2])
		w.Defect = DefectAlignmentSkip
		r, err := CheckWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Violations) > 0 {
			rep, seed = r, s
			break
		}
	}
	if rep == nil {
		t.Fatal("skipped alignment check not caught within 2000 seeds")
	}

	shrunk, srep := Shrink(rep.Workload)
	if srep == nil || len(srep.Violations) == 0 {
		t.Fatal("shrinking lost the violation")
	}
	if srep.Violations[0].Kind != KindShardBeyondFMatrix {
		t.Fatalf("alignment skip surfaced as %s at seed %d, want %s", srep.Violations[0].Kind, seed, KindShardBeyondFMatrix)
	}
	if shrunk.Shards < 2 {
		t.Fatalf("shrunk counterexample has %d shards; the fault needs a multi-shard read set", shrunk.Shards)
	}
	if got := shrunk.TxnCount(); got > 4 {
		t.Fatalf("shrunk counterexample has %d transactions, want <= 4", got)
	}
	roundTrip(t, &Counterexample{
		Seed:      seed,
		Note:      "cross-shard cycle-alignment check skipped (per-shard validation alone admits no single serialization point)",
		Violation: srep.Violations[0].Kind,
		Detail:    srep.Violations[0].Detail,
		History:   srep.History,
		Workload:  shrunk,
	})
}

// The shrinker collapses the shard count before anything else: a
// violation that has nothing to do with sharding (here DefectLooseRead)
// must shrink to Shards = 0 even when the found workload carried a
// fleet.
func TestShrinkCollapsesShardsFirst(t *testing.T) {
	t.Parallel()
	seed, rep, found, err := soakWith(DefectLooseRead, 1, 500, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("loosened read-condition not caught within 500 seeds")
	}
	w := forceShards(rep.Workload, 4)
	shrunk, srep := Shrink(w)
	if srep == nil || len(srep.Violations) == 0 {
		t.Fatalf("seed %d: shrinking lost the violation", seed)
	}
	if shrunk.Shards != 0 {
		t.Fatalf("shrunk workload still has %d shards; a non-sharding bug must shed the fleet", shrunk.Shards)
	}
}

// Workload validation bounds the sharded participant.
func TestShardWorkloadValidation(t *testing.T) {
	w := &Workload{Objects: 4, Cycles: 2, Shards: 9}
	if err := w.Validate(); err == nil {
		t.Fatal("Shards above the cap validated")
	}
	w.Shards = 5
	if err := w.Validate(); err == nil {
		t.Fatal("more shards than objects validated")
	}
	w.Shards = 4
	if err := w.Validate(); err != nil {
		t.Fatalf("Shards == Objects rejected: %v", err)
	}
	if c := w.Clone(); c.Shards != 4 {
		t.Fatalf("Clone dropped Shards: %d", c.Shards)
	}
}
