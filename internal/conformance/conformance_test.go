package conformance

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"broadcastcc/internal/bctest"
	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/core"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// soakWith is Soak with defect d induced in every generated workload: it
// returns the first violating seed and its report.
func soakWith(d Defect, base int64, n int, p Params) (seed int64, rep *Report, found bool, err error) {
	for s := base; s < base+int64(n); s++ {
		w := Generate(s, p)
		w.Defect = d
		r, err := CheckWorkload(w)
		if err != nil {
			return s, nil, false, err
		}
		if len(r.Violations) > 0 {
			return s, r, true, nil
		}
	}
	return 0, nil, false, nil
}

// roundTrip writes ce into a fresh corpus directory, loads it back and
// replays it both ways: its violation under the defect, clean without.
func roundTrip(t *testing.T, ce *Counterexample) {
	t.Helper()
	dir := t.TempDir()
	if _, err := WriteCounterexample(dir, ce); err != nil {
		t.Fatal(err)
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 1 {
		t.Fatalf("corpus has %d entries, want 1", len(corpus))
	}
	for _, loaded := range corpus {
		if loaded.Workload.Defect != ce.Workload.Defect {
			t.Fatalf("defect %s decoded as %s", ce.Workload.Defect, loaded.Workload.Defect)
		}
		if err := Replay(loaded); err != nil {
			t.Fatal(err)
		}
	}
}

// assertMatchesPin requires w to encode byte for byte like the workload
// of the committed corpus pin name.
func assertMatchesPin(t *testing.T, w *Workload, name string) {
	t.Helper()
	corpus, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	pin, ok := corpus[name]
	if !ok {
		t.Fatalf("corpus pin %s missing", name)
	}
	got, _ := json.MarshalIndent(w, "", "  ")
	want, _ := json.MarshalIndent(pin.Workload, "", "  ")
	if !bytes.Equal(got, want) {
		t.Fatalf("shrunk workload differs from pin %s:\ngot  %s\nwant %s", name, got, want)
	}
}

// TestInducedDefectsStayLocal runs every defect next to a clean twin of
// the same workload, all in parallel: a defect is an input of one run,
// so the twin must report nothing while the defect reports its kind.
func TestInducedDefectsStayLocal(t *testing.T) {
	cases := []struct {
		d    Defect
		kind string
		w    *Workload
	}{
		{DefectLooseRead, KindFMatrixBeyondApprox, Generate(17, DefaultParams())},
		{DefectStaleMC, KindTheorem2, Generate(4, DefaultParams())},
		{DefectCacheSkip, KindCacheStaleness, Generate(5, DefaultParams())},
		{DefectTraceSkew, KindTraceDiverged, traceWorkload()},
		{DefectAlignmentSkip, KindShardBeyondFMatrix, forceShards(Generate(11, DefaultParams()), 4)},
	}
	for _, tc := range cases {
		for _, d := range []Defect{tc.d, DefectNone} {
			w := tc.w.Clone()
			w.Defect = d
			name := tc.d.String() + "/clean-twin"
			if d != DefectNone {
				name = tc.d.String() + "/defect"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rep, err := CheckWorkload(w)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case d == DefectNone && len(rep.Violations) > 0:
					t.Fatalf("clean twin violates: %v", rep.Violations[0])
				case d != DefectNone && (len(rep.Violations) == 0 || rep.Violations[0].Kind != tc.kind):
					t.Fatalf("want first violation %s, got %v", tc.kind, rep.Violations)
				}
			})
		}
	}
}

// Defects travel by name; an unknown name or value is refused, and
// Clone keeps the defect.
func TestDefectEncoding(t *testing.T) {
	for d := DefectNone; d < defectCount; d++ {
		w := &Workload{Objects: 1, Cycles: 1, Defect: d}
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back Workload
		if err := json.Unmarshal(b, &back); err != nil || back.Defect != d {
			t.Fatalf("%s: round-trip gave %s, %v (%s)", d, back.Defect, err, b)
		}
		if (d == DefectNone) == bytes.Contains(b, []byte(`"defect"`)) {
			t.Fatalf("%s: encoding %s", d, b)
		}
		if c := w.Clone(); c.Defect != d {
			t.Fatalf("Clone dropped defect %s", d)
		}
	}
	var w Workload
	if err := json.Unmarshal([]byte(`{"objects":1,"cycles":1,"defect":"bogus"}`), &w); err == nil {
		t.Fatal("unknown defect name decoded")
	}
	if err := (&Workload{Objects: 1, Cycles: 1, Defect: defectCount}).Validate(); err == nil {
		t.Fatal("unknown defect value validated")
	}
}

// The repo's correct implementations must survive a soak: every seeded
// workload — faults, caches, uplink updates and all — conforms to the
// acceptance lattice and the server invariants.
func TestSoakClean(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	seed, rep, clean, found, err := Soak(1, n, DefaultParams())
	if err != nil {
		t.Fatalf("soak error at seed %d after %d clean seeds: %v", seed, clean, err)
	}
	if found {
		t.Fatalf("seed %d violates conformance after %d clean seeds: %v", seed, clean, rep.Violations[0])
	}
}

// The whole pipeline is deterministic: generating and checking the same
// seed twice yields identical verdicts, logs and induced histories.
func TestCheckWorkloadDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 17, 42, 1001} {
		r1, err := CheckWorkload(Generate(seed, DefaultParams()))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := CheckWorkload(Generate(seed, DefaultParams()))
		if err != nil {
			t.Fatal(err)
		}
		if r1.History != r2.History {
			t.Fatalf("seed %d: histories differ:\n%s\nvs\n%s", seed, r1.History, r2.History)
		}
		if !reflect.DeepEqual(r1.Txns, r2.Txns) {
			t.Fatalf("seed %d: verdicts differ", seed)
		}
		if !reflect.DeepEqual(r1.Log, r2.Log) {
			t.Fatalf("seed %d: audit logs differ", seed)
		}
	}
}

// Generate must always produce a workload Validate accepts, and Clone
// must be deep (mutating the clone leaves the original alone).
func TestGenerateValidatesAndClones(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		w := Generate(seed, DefaultParams())
		if err := w.Validate(); err != nil {
			t.Fatalf("seed %d: generated workload invalid: %v", seed, err)
		}
		c := w.Clone()
		if len(c.Clients) > 0 && len(c.Clients[0]) > 0 {
			c.Clients[0][0].Reads[0].Obj = -999
			if w.Clients[0][0].Reads[0].Obj == -999 {
				t.Fatal("Clone shares read slices with the original")
			}
		}
	}
}

// resolveReads is the pure read-placement function: fresh reads advance
// through received cycles, cached reads step back without moving the
// cursor, and reads past the end truncate.
func TestResolveReads(t *testing.T) {
	w := &Workload{Objects: 3, Cycles: 5}
	txn := PlannedTxn{Start: 2, Reads: []PlannedRead{
		{Obj: 0, Step: 0},
		{Obj: 1, Step: 1},
		{Obj: 2, CacheAge: 2},
	}}
	reads, _, trunc := resolveReads(w, nil, 0, txn)
	want := []protocol.ReadAt{{Obj: 0, Cycle: 2}, {Obj: 1, Cycle: 3}, {Obj: 2, Cycle: 1}}
	if trunc || !reflect.DeepEqual(reads, want) {
		t.Fatalf("resolveReads = %v (trunc=%v), want %v", reads, trunc, want)
	}

	// Reads that step past the last cycle truncate the transaction.
	long := PlannedTxn{Start: 5, Reads: []PlannedRead{{Obj: 0}, {Obj: 1, Step: 3}}}
	reads, _, trunc = resolveReads(w, nil, 0, long)
	if !trunc || len(reads) != 1 {
		t.Fatalf("expected truncation after 1 read, got %v (trunc=%v)", reads, trunc)
	}

	// The first read is always fresh even if planned as cached.
	cachedFirst := PlannedTxn{Start: 3, Reads: []PlannedRead{{Obj: 0, CacheAge: 2}}}
	reads, _, _ = resolveReads(w, nil, 0, cachedFirst)
	if reads[0].Cycle != 3 {
		t.Fatalf("first read resolved at cycle %d, want fresh at 3", reads[0].Cycle)
	}
}

// The acceptance-criterion test: an intentionally broken read-condition
// (< flipped to <=, DefectLooseRead) must be caught by the soak, shrink
// to a tiny counterexample, round-trip through the corpus encoding, and
// replay broken under the defect and clean without it.
func TestBrokenReadConditionCaught(t *testing.T) {
	t.Parallel()
	seed, rep, found, err := soakWith(DefectLooseRead, 1, 500, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("loosened read-condition not caught within 500 seeds")
	}

	shrunk, srep := Shrink(rep.Workload)
	if srep == nil || len(srep.Violations) == 0 {
		t.Fatal("shrinking lost the violation")
	}
	if srep.Violations[0].Kind != KindFMatrixBeyondApprox {
		t.Fatalf("loose read surfaced as %s, want %s", srep.Violations[0].Kind, KindFMatrixBeyondApprox)
	}
	if got := shrunk.TxnCount(); got > 4 {
		t.Fatalf("shrunk counterexample has %d transactions, want <= 4", got)
	}
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunk workload no longer validates: %v", err)
	}
	roundTrip(t, &Counterexample{
		Seed:      seed,
		Note:      "loosened read-condition (bound > cycle instead of >=)",
		Violation: srep.Violations[0].Kind,
		Detail:    srep.Violations[0].Detail,
		History:   srep.History,
		Workload:  shrunk,
	})
}

// Satellite property: on a large batch of random histories, the grouped
// protocol's acceptance must sit strictly inside the lattice —
// everything Datacycle accepts, grouped accepts; everything grouped
// accepts, F-Matrix accepts — across the whole g-spectrum and under
// regrouping. (CheckWorkload already files violations for breaks; this
// test additionally asserts the verdict ordering directly.)
func TestGroupedAcceptanceSandwiched(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	for seed := int64(50_000); seed < 50_000+int64(n); seed++ {
		rep, err := CheckWorkload(Generate(seed, DefaultParams()))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d violates conformance: %v", seed, rep.Violations[0])
		}
		for _, tv := range rep.Txns {
			if tv.Update || tv.Truncated {
				continue
			}
			if tv.Datacycle && !tv.Grouped {
				t.Fatalf("seed %d client %d txn %d: Datacycle accepts but grouped rejects", seed, tv.Client, tv.Txn)
			}
			if tv.Grouped && !tv.FMatrix {
				t.Fatalf("seed %d client %d txn %d: grouped accepts but F-Matrix rejects", seed, tv.Client, tv.Txn)
			}
		}
	}
}

// The grouped acceptance-criterion test: the naive monotone MC
// maintenance (mc[s] = max(old, fresh), DefectStaleMC) is wrong because
// Theorem 2's column rewrites can decrease a group maximum. The stale MC
// is still an upper bound — it can never violate the acceptance lattice
// — so the harness must catch it through the grouped server's control
// verification, shrink it to the committed pin, and round-trip it
// through the corpus encoding.
func TestGroupedStaleMCCaught(t *testing.T) {
	t.Parallel()
	seed, rep, found, err := soakWith(DefectStaleMC, 1, 500, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("stale grouped MC maintenance not caught within 500 seeds")
	}

	shrunk, srep := Shrink(rep.Workload)
	if srep == nil || len(srep.Violations) == 0 {
		t.Fatal("shrinking lost the violation")
	}
	if got := shrunk.TxnCount(); got > 4 {
		t.Fatalf("shrunk counterexample has %d transactions, want <= 4", got)
	}
	if srep.Violations[0].Kind != KindTheorem2 && srep.Violations[0].Kind != KindSnapshotStale {
		t.Fatalf("stale MC surfaced as %s, want a Theorem-2/snapshot violation (the lattice cannot catch an over-estimate)", srep.Violations[0].Kind)
	}
	assertMatchesPin(t, shrunk, "ce-460515935f6a.json")
	roundTrip(t, &Counterexample{
		Seed:      seed,
		Note:      "naive monotone grouped-MC maintenance (max(old,new) misses decreasing column rewrites)",
		Violation: srep.Violations[0].Kind,
		Detail:    srep.Violations[0].Detail,
		History:   srep.History,
		Workload:  shrunk,
	})
}

// TestCorpusReplay replays every committed counterexample in corpus/.
// A pin carrying a Defect must reproduce its pinned violation kind under
// the defect and replay clean without it; every other pin must replay
// clean — each pins a scenario that once (or nearly) broke, so a
// regression flips this test. Clean pins also carry a History golden
// asserting full trace determinism.
func TestCorpusReplay(t *testing.T) {
	corpus, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("committed corpus is empty; expected seed entries in internal/conformance/corpus")
	}
	for name, ce := range corpus {
		if err := Replay(ce); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLiveStackAudit runs the real server/client stack — not the
// replayed validators — with the ObserveRead instrumentation hook, and
// audits what the client actually did against the exact checkers and
// the server's incremental control state: once in process and once over
// a TCP tuner, whose client reads frames the tuner recycles (run it
// under the framepoison tag to poison every frame let go of).
func TestLiveStackAudit(t *testing.T) {
	for _, overTCP := range []bool{false, true} {
		name := "in-process"
		if overTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) { liveStackAudit(t, overTCP) })
	}
}

func liveStackAudit(t *testing.T, overTCP bool) {
	srv, err := server.New(server.Config{
		Objects:    3,
		ObjectBits: 64,
		Algorithm:  protocol.FMatrix,
		Audit:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, step := srv.Subscribe(16), func() { srv.StartCycle() }
	if overTCP {
		ns, err := netcast.Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ns.Close()
		tn, err := netcast.Tune(ns.BroadcastAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		for deadline := time.Now().Add(5 * time.Second); ns.Subscribers() < 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the tuner never subscribed")
			}
		}
		sub.Cancel()
		sub = tn.Subscribe(16)
		step = func() {
			if _, err := ns.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	type obs struct {
		obj      int
		cycle    cmatrix.Cycle
		cacheHit bool
		accepted bool
	}
	var observed []obs
	cli := client.New(client.Config{
		Algorithm:     protocol.FMatrix,
		CacheCurrency: 2,
		ObserveRead: func(obj int, cycle cmatrix.Cycle, cacheHit, accepted bool) {
			observed = append(observed, obs{obj, cycle, cacheHit, accepted})
		},
	}, sub)

	commit := func(obj int) {
		txn := srv.Begin()
		if err := txn.Write(obj, []byte{byte(obj)}); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	commit(0)
	commit(1)
	step()
	if _, ok := cli.AwaitCycle(); !ok {
		t.Fatal("no cycle received")
	}
	txn := cli.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	commit(2)
	step()
	cli.AwaitCycle()
	if _, err := txn.Read(1); err != nil {
		t.Fatal(err)
	}
	// Within the currency bound this re-read is served from the cache,
	// and the hook must see it as a hit.
	if _, err := txn.Read(0); err != nil {
		t.Fatalf("cached re-read of object 0: %v", err)
	}
	if last := observed[len(observed)-1]; !last.cacheHit || !last.accepted {
		t.Fatalf("expected an accepted cache hit, observed %+v", last)
	}
	rs, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}

	if err := srv.VerifyControl(); err != nil {
		t.Fatalf("server control state diverged from rebuild: %v", err)
	}
	if len(observed) == 0 {
		t.Fatal("ObserveRead hook never fired")
	}
	var accepted int
	for _, o := range observed {
		if o.accepted {
			accepted++
		}
	}
	if accepted < len(rs) {
		t.Fatalf("hook observed %d accepted reads, commit read-set has %d", accepted, len(rs))
	}

	h, id := bctest.InducedHistoryWithTxn(srv.AuditLog(), rs)
	if v := core.Approx(h); !v.OK {
		t.Fatalf("live client's accepted transaction t%d fails APPROX: %s\n%s", id, v.Reason, h)
	}
}

// A clean workload must shrink to itself (Shrink is a no-op without a
// violation to preserve).
func TestShrinkNoViolationIsIdentity(t *testing.T) {
	w := Generate(7, DefaultParams())
	got, rep := Shrink(w)
	if rep != nil {
		t.Fatal("Shrink invented a violating report for a clean workload")
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatal("Shrink modified a clean workload")
	}
}
