package conformance

import (
	"testing"

	"broadcastcc/internal/cmatrix"
)

// The generator must actually span the currency spectrum: within a
// modest seed range there are profiled workloads at T = 0, at finite
// bounds, at T = ∞, with cache-size limits and with read footprints
// (CacheProfile.Subset) — otherwise "cached variants at every T" is an
// empty claim.
func TestCacheProfileSpectrumCovered(t *testing.T) {
	var t0, finite, inf, sized, subset int
	for seed := int64(0); seed < 400; seed++ {
		w := Generate(seed, DefaultParams())
		for _, prof := range w.Caches {
			switch {
			case prof.T == 0:
				t0++
			case prof.T > 0:
				finite++
			default:
				inf++
			}
			if prof.Size > 0 {
				sized++
			}
			if len(prof.Subset) > 0 {
				subset++
			}
		}
	}
	if t0 == 0 || finite == 0 || inf == 0 || sized == 0 || subset == 0 {
		t.Fatalf("profile spectrum not covered: T=0 %d, finite %d, ∞ %d, sized %d, subset %d",
			t0, finite, inf, sized, subset)
	}
}

// The quasi-caching contract, asserted directly on a batch of clean
// workloads: every resolved read of a T-profiled client is at most T
// cycles stale, and a partial replica never reads outside its footprint
// (it hears every object; the footprint is what it reads and caches).
func TestCachedCurrencyBoundHolds(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 100
	}
	checked := 0
	for seed := int64(20_000); seed < 20_000+int64(n); seed++ {
		w := Generate(seed, DefaultParams())
		if len(w.Caches) == 0 {
			continue
		}
		rep, err := CheckWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d violates conformance: %v", seed, rep.Violations[0])
		}
		for _, tv := range rep.Txns {
			prof := w.ProfileFor(tv.Client)
			if prof == nil {
				continue
			}
			for i, r := range tv.Reads {
				if len(prof.Subset) > 0 {
					in := false
					for _, o := range prof.Subset {
						if o == r.Obj {
							in = true
						}
					}
					if !in {
						t.Fatalf("seed %d client %d: read of %d outside subset %v", seed, tv.Client, r.Obj, prof.Subset)
					}
				}
				// Re-derive the serving staleness from the resolved reads:
				// a cached read's cycle is behind the latest fresh cycle at
				// or before it in program order.
				if prof.T >= 0 {
					var cursor cmatrix.Cycle
					for j := 0; j <= i; j++ {
						if tv.Reads[j].Cycle > cursor {
							cursor = tv.Reads[j].Cycle
						}
					}
					if age := cursor - r.Cycle; age > cmatrix.Cycle(prof.T) {
						t.Fatalf("seed %d client %d txn %d read %d: served %d cycles stale under T=%d",
							seed, tv.Client, tv.Txn, i, age, prof.T)
					}
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no profiled workloads in the seed range")
	}
}

// The cached acceptance-criterion test: a client whose cache skips
// revalidation (DefectCacheSkip) serves reads staler than its currency
// bound. The staleness oracle catches it, the shrinker reduces it to the
// committed pin with the cache profile intact (collapsing it would lose
// the violation), and the corpus round-trip replays broken under the
// defect and clean without it.
func TestStaleServeHookCaught(t *testing.T) {
	t.Parallel()
	seed, rep, found, err := soakWith(DefectCacheSkip, 1, 500, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("skipped cache revalidation not caught within 500 seeds")
	}
	if rep.Violations[0].Kind != KindCacheStaleness {
		t.Fatalf("violation kind = %s, want %s", rep.Violations[0].Kind, KindCacheStaleness)
	}

	shrunk, srep := Shrink(rep.Workload)
	if srep == nil || len(srep.Violations) == 0 {
		t.Fatal("shrinking lost the violation")
	}
	if got := shrunk.TxnCount(); got > 4 {
		t.Fatalf("shrunk counterexample has %d transactions, want <= 4", got)
	}
	if len(shrunk.Caches) == 0 {
		t.Fatal("shrinker collapsed the cache profiles out of a caching counterexample")
	}
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunk workload no longer validates: %v", err)
	}
	assertMatchesPin(t, shrunk, "ce-7020fe7b0fb6.json")
	roundTrip(t, &Counterexample{
		Seed:      seed,
		Note:      "cache revalidation skipped: a T-bounded cache serves entries past their currency bound",
		Violation: srep.Violations[0].Kind,
		Detail:    srep.Violations[0].Detail,
		History:   srep.History,
		Workload:  shrunk,
	})
}
