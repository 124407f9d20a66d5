package core

import (
	"math/rand"
	"reflect"
	"testing"

	"broadcastcc/internal/history"
)

// Paper fixtures (Section 2.2), with explicit commits for the read-only
// transactions.
var (
	// Example 1 history (1.1): two read-only client transactions t1, t3
	// and two server update transactions t2, t4.
	example1 = history.MustParse("r1(IBM) w2(IBM) c2 r3(IBM) r3(Sun) w4(Sun) c4 r1(Sun) c1 c3")
	// Example 2 history (2.1): t1 is now an update transaction.
	example2 = history.MustParse("r1(IBM) w2(IBM) c2 r3(IBM) r3(Sun) c3 w4(Sun) c4 r1(Sun) w1(DEC) c1")
	// Appendix C witness: legal (update consistent) but rejected by APPROX.
	approxGap = history.MustParse("r1(ob1) r2(ob2) w1(ob3) w2(ob3) w2(ob4) w1(ob4) w3(ob3) w3(ob4) c1 c2 c3")
)

func TestExample1(t *testing.T) {
	if Serializable(example1).OK {
		t.Error("example 1 must not be globally serializable")
	}
	if v := Approx(example1); !v.OK {
		t.Errorf("APPROX must accept example 1: %s", v.Reason)
	}
	if v := UpdateConsistent(example1); !v.OK {
		t.Errorf("example 1 must be update consistent: %s", v.Reason)
	}
	// The update sub-history {t2, t4} alone is serializable.
	if v := ConflictSerializable(example1.UpdateSubhistory()); !v.OK {
		t.Errorf("update sub-history must be serializable: %s", v.Reason)
	}
}

func TestExample1Prefix(t *testing.T) {
	// History (1.2): only client A's transaction exists; still rejected
	// under serializability-with-worst-case-assumptions, but actually
	// serializable as a complete history — and accepted by APPROX.
	h := history.MustParse("r1(IBM) w2(IBM) c2 w4(Sun) c4 r1(Sun) c1")
	if v := Approx(h); !v.OK {
		t.Errorf("APPROX must accept history 1.2: %s", v.Reason)
	}
	// 1.2 on its own happens to be non-serializable too (t1 -> t2 rw on
	// IBM, t4 -> t1 wr on Sun is fine; check the actual verdict).
	v := Serializable(h)
	// Order t4 t1 t2 serializes it: t1 reads IBM before w2 and Sun from t4.
	if !v.OK {
		t.Errorf("history 1.2 is serializable (t4;t1;t2): %s", v.Reason)
	}
}

func TestExample2(t *testing.T) {
	if Serializable(example2).OK {
		t.Error("example 2 must not be globally serializable")
	}
	if v := Approx(example2); !v.OK {
		t.Errorf("APPROX must accept example 2: %s", v.Reason)
	}
	if v := UpdateConsistent(example2); !v.OK {
		t.Errorf("example 2 must be update consistent: %s", v.Reason)
	}
	// The paper gives the update serialization order t4; t1; t2.
	upd := example2.UpdateSubhistory()
	v := ConflictSerializable(upd)
	if !v.OK {
		t.Fatalf("update sub-history must be conflict serializable: %s", v.Reason)
	}
	want := []history.TxnID{4, 1, 2}
	if !reflect.DeepEqual(v.Order, want) {
		t.Errorf("serialization order = %v, want %v", v.Order, want)
	}
}

func TestApproxGapFixture(t *testing.T) {
	// Appendix C: this history is legal but APPROX rejects it (its update
	// sub-history is view- but not conflict-serializable).
	v := Approx(approxGap)
	if v.OK {
		t.Error("APPROX must reject the Appendix C witness")
	}
	if len(v.Cycle) == 0 {
		t.Error("rejection should name the conflict cycle")
	}
	if v := UpdateConsistent(approxGap); !v.OK {
		t.Errorf("Appendix C witness must be update consistent: %s", v.Reason)
	}
	if !ViewSerializable(approxGap).OK {
		t.Error("Appendix C witness must be view serializable")
	}
	if ConflictSerializable(approxGap).OK {
		t.Error("Appendix C witness must not be conflict serializable")
	}
}

func TestReadOnlyNotSerializableWithLiveSet(t *testing.T) {
	// t_R reads x from t1, then t2 (live via y) overwrites x, and t_R
	// reads y from t2: S(t_R) has the cycle R -> t2 -> R.
	h := history.MustParse("w1(x) w1(y) c1 r9(x) r2(y) w2(x) w2(y) c2 r9(y) c9")
	if v := SerializableReadOnly(h, 9); v.OK {
		t.Error("t9 must not be serializable w.r.t. its live set")
	} else if len(v.Cycle) == 0 {
		t.Error("expected a cycle in the verdict")
	}
	if Approx(h).OK {
		t.Error("APPROX must reject")
	}
	if UpdateConsistent(h).OK {
		t.Error("exact checker must reject too (P(t9) cyclic)")
	}
}

func TestLostUpdateRejectedEverywhere(t *testing.T) {
	h := history.MustParse("r1(x) r2(x) w1(x) w2(x) c1 c2")
	if ConflictSerializable(h).OK {
		t.Error("lost update must not be conflict serializable")
	}
	if ViewSerializable(h).OK {
		t.Error("lost update must not be view serializable")
	}
	if Approx(h).OK {
		t.Error("APPROX must reject lost update")
	}
	if UpdateConsistent(h).OK {
		t.Error("update consistency must reject lost update")
	}
}

func TestSerialHistoriesAcceptedEverywhere(t *testing.T) {
	h := history.MustParse("r1(x) w1(y) c1 r2(y) w2(z) c2 r3(z) c3")
	for name, v := range map[string]Verdict{
		"conflict": ConflictSerializable(h),
		"view":     ViewSerializable(h),
		"approx":   Approx(h),
		"update":   UpdateConsistent(h),
	} {
		if !v.OK {
			t.Errorf("%s rejects a serial history: %s", name, v.Reason)
		}
	}
}

func TestAbortedTransactionsIgnored(t *testing.T) {
	// The aborted t2's write must not count: t1 reads x written by the
	// aborted t2 in raw order, but the committed projection has t1
	// reading the initial value.
	h := history.MustParse("w2(x) a2 r1(x) c1")
	if v := Approx(h); !v.OK {
		t.Errorf("aborted writer should be invisible: %s", v.Reason)
	}
	committed := h.CommittedProjection()
	rf := committed.ReadsFrom()
	if len(rf) != 1 || rf[0].Writer != history.T0 {
		t.Errorf("committed reads-from = %v, want read from T0", rf)
	}
}

func TestActiveTransactionsIgnored(t *testing.T) {
	// t5 never terminates; checkers consider committed transactions only.
	h := history.MustParse("w5(x) r1(x) c1 w2(x) c2")
	if v := Approx(h); !v.OK {
		t.Errorf("active writer should be invisible: %s", v.Reason)
	}
}

func TestEmptyAndTrivialHistories(t *testing.T) {
	for _, s := range []string{"", "c1", "r1(x) c1", "w1(x) c1"} {
		h := history.MustParse(s)
		for name, v := range map[string]Verdict{
			"conflict": ConflictSerializable(h),
			"view":     ViewSerializable(h),
			"approx":   Approx(h),
			"update":   UpdateConsistent(h),
		} {
			if !v.OK {
				t.Errorf("%s rejects trivial history %q: %s", name, s, v.Reason)
			}
		}
	}
}

func TestConflictWitnessOrderIsViewEquivalent(t *testing.T) {
	h := history.MustParse("w1(x) c1 r2(x) w2(y) c2 r3(y) w3(z) c3")
	v := ConflictSerializable(h)
	if !v.OK {
		t.Fatalf("CSR expected: %s", v.Reason)
	}
	serial := SerialHistory(h.CommittedProjection(), v.Order)
	if !ViewEquivalent(h, serial) {
		t.Errorf("witness order %v is not view-equivalent to the history", v.Order)
	}
}

// A rejection names the same cycle on every call, and every cycle it
// names is a closed walk over arcs of the conflict graph.
func TestConflictCycleIsStableWitness(t *testing.T) {
	h := history.MustParse("r8(x3) c8 r7(x1) w2(x0) r5(x1) w2(x1) w1(x3) c2 r5(x0) w3(x0) r6(x3) r4(x0) r4(x1) w1(x1) c1 w5(x3) c6 w5(x2) w4(x1) c5 w3(x3) w4(x2) r7(x3) r7(x2) c3 c4 c7")
	first := ConflictSerializable(h)
	if first.OK {
		t.Fatal("history must not be conflict serializable")
	}
	for range 50 {
		v := ConflictSerializable(h)
		if !reflect.DeepEqual(v.Cycle, first.Cycle) {
			t.Fatalf("cycle %v, earlier call %v", v.Cycle, first.Cycle)
		}
	}
	cfg := history.DefaultGenConfig()
	cfg.UpdateTxns, cfg.ReadsFirst = 5, false
	for _, h := range append(randomHistories(5, 300, cfg), h) {
		v := ConflictSerializable(h)
		if v.OK {
			continue
		}
		cyc, ops := v.Cycle, h.CommittedProjection().Ops()
		if len(cyc) < 3 || cyc[0] != cyc[len(cyc)-1] {
			t.Fatalf("%v: cycle %v is not closed", h, cyc)
		}
		conflict := func(a, b history.TxnID) bool {
			for i, x := range ops {
				for _, y := range ops[i+1:] {
					if x.Txn == a && y.Txn == b && y.Obj == x.Obj && (x.Kind == history.OpWrite || y.Kind == history.OpWrite) {
						return true
					}
				}
			}
			return false
		}
		for k := 0; k+1 < len(cyc); k++ {
			if !conflict(cyc[k], cyc[k+1]) {
				t.Fatalf("%v: cycle %v has no conflict arc t%d -> t%d", h, cyc, cyc[k], cyc[k+1])
			}
		}
	}
}

func TestSerializationGraphNodeMap(t *testing.T) {
	g, m := SerializationGraph(example1.CommittedProjection(), 1)
	// LIVE(t1) = {t1, t4, T0}.
	if m.Len() != 3 {
		t.Fatalf("LIVE(t1) size = %d, want 3 (t0, t1, t4)", m.Len())
	}
	if got := m.IDs(); !reflect.DeepEqual(got, []history.TxnID{0, 1, 4}) {
		t.Errorf("IDs = %v", got)
	}
	if _, ok := m.Index(2); ok {
		t.Error("t2 must not be in LIVE(t1)")
	}
	i4, _ := m.Index(4)
	i1, _ := m.Index(1)
	if !g.HasEdge(i4, i1) {
		t.Error("expected reads-from edge t4 -> t1")
	}
	if g.HasCycle() {
		t.Error("S(t1) must be acyclic")
	}
	if id := m.ID(i4); id != 4 {
		t.Errorf("ID round trip = %v", id)
	}
}

func TestTransactionPolygraphExample1(t *testing.T) {
	p, m := TransactionPolygraph(example1.CommittedProjection(), 3)
	// LIVE(t3) = {t3, t2, T0}.
	if m.Len() != 3 {
		t.Fatalf("LIVE(t3) size = %d, want 3", m.Len())
	}
	ok, _ := p.AcyclicExact()
	if !ok {
		t.Error("P(t3) must be acyclic")
	}
}

// ---- Randomized cross-validation ----

func randomHistories(seed int64, n int, cfg history.GenConfig) []*history.History {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*history.History, n)
	for i := range out {
		out[i] = history.RandomHistory(rng, cfg)
	}
	return out
}

func TestViewSerializableMatchesBruteForce(t *testing.T) {
	cfg := history.DefaultGenConfig()
	cfg.UpdateTxns = 4
	cfg.ReadOnlyTxns = 0
	for i, h := range randomHistories(21, 300, cfg) {
		got := ViewSerializable(h).OK
		want := ViewSerializableBrute(h)
		if got != want {
			t.Fatalf("history %d: polygraph=%v brute=%v\n%s", i, got, want, h)
		}
	}
}

func TestConflictImpliesView(t *testing.T) {
	cfg := history.DefaultGenConfig()
	cfg.UpdateTxns = 4
	cfg.ReadOnlyTxns = 1
	for i, h := range randomHistories(22, 300, cfg) {
		if ConflictSerializable(h).OK && !ViewSerializable(h).OK {
			t.Fatalf("history %d: CSR but not VSR\n%s", i, h)
		}
	}
}

func TestSerializableImpliesApprox(t *testing.T) {
	cfg := history.DefaultGenConfig()
	for i, h := range randomHistories(23, 400, cfg) {
		if Serializable(h).OK && !Approx(h).OK {
			t.Fatalf("history %d: serializable but APPROX rejects (Figure 1 violated)\n%s", i, h)
		}
	}
}

// Theorem 6: APPROX accepts only update-consistent histories.
func TestApproxImpliesUpdateConsistent(t *testing.T) {
	cfg := history.DefaultGenConfig()
	cfg.AbortFraction = 0.15
	for i, h := range randomHistories(24, 400, cfg) {
		if Approx(h).OK && !UpdateConsistent(h).OK {
			t.Fatalf("history %d: APPROX accepts but history is not update consistent (Theorem 6 violated)\n%s", i, h)
		}
	}
}

// With serial update transactions (the broadcast-server execution mode),
// APPROX's first condition always holds; cross-validate the second.
func TestSerialUpdatesApproxVsExact(t *testing.T) {
	cfg := history.DefaultGenConfig()
	cfg.SerialUpdates = true
	cfg.ReadOnlyTxns = 3
	for i, h := range randomHistories(25, 400, cfg) {
		upd := h.UpdateSubhistory()
		if v := ConflictSerializable(upd); !v.OK {
			t.Fatalf("history %d: serial updates must be conflict serializable: %s", i, v.Reason)
		}
		if Approx(h).OK && !UpdateConsistent(h).OK {
			t.Fatalf("history %d: Theorem 6 violated\n%s", i, h)
		}
	}
}

func TestApproxPolynomialSmoke(t *testing.T) {
	// APPROX must stay fast on a history far beyond what the exact
	// checkers could handle.
	rng := rand.New(rand.NewSource(26))
	cfg := history.GenConfig{
		Objects:       50,
		UpdateTxns:    120,
		ReadOnlyTxns:  60,
		MaxReads:      6,
		MaxWrites:     4,
		ReadsFirst:    true,
		SerialUpdates: true,
	}
	h := history.RandomHistory(rng, cfg)
	v := Approx(h) // must terminate promptly; verdict value irrelevant
	_ = v
}
