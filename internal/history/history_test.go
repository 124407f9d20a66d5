package history

import (
	"math/rand"
	"reflect"
	"testing"
)

// paperExample1 is history (1.1) from Section 2.2 with commits for the
// read-only transactions appended.
const paperExample1 = "r1(IBM) w2(IBM) c2 r3(IBM) r3(Sun) w4(Sun) c4 r1(Sun) c1 c3"

func TestParseRoundTrip(t *testing.T) {
	h := MustParse(paperExample1)
	if h.Len() != 10 {
		t.Fatalf("Len = %d, want 10", h.Len())
	}
	if h.String() != paperExample1 {
		t.Errorf("round trip: got %q", h.String())
	}
	reparsed := MustParse(h.String())
	if !reflect.DeepEqual(h.Ops(), reparsed.Ops()) {
		t.Error("reparse mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x1(a)",    // unknown kind
		"r(a)",     // missing id
		"r0(a)",    // id 0 reserved
		"r-1(a)",   // negative id
		"r1",       // read without object
		"r1()",     // empty parens are allowed? no: len<3
		"r1(a",     // unbalanced
		"c1(a)",    // commit with object
		"a2(x)",    // abort with object
		"w3(a(b))", // nested parens
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseObjectNames(t *testing.T) {
	h := MustParse("r1(IBM-2024) w2(x_y.z) c1 c2")
	if got := h.Objects(); !reflect.DeepEqual(got, []string{"IBM-2024", "x_y.z"}) {
		t.Errorf("Objects = %v", got)
	}
}

func TestAppendRejectsT0(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with id 0 should panic")
		}
	}()
	New().Append(Read(0, "x"))
}

func TestStatusAndReadOnly(t *testing.T) {
	h := MustParse("r1(x) w2(x) c2 a3 r3(x) w4(y)")
	// Note: a3 precedes r3's event in this synthetic (ill-formed) history;
	// statusOf scans for the first terminal event.
	if h.statusOf(1) != StatusActive {
		t.Error("t1 should be active")
	}
	if h.statusOf(2) != StatusCommitted {
		t.Error("t2 should be committed")
	}
	if h.statusOf(3) != StatusAborted {
		t.Error("t3 should be aborted")
	}
	if h.statusOf(4) != StatusActive {
		t.Error("t4 should be active")
	}
	if !h.IsReadOnly(1) || h.IsReadOnly(2) || !h.IsReadOnly(3) || h.IsReadOnly(4) {
		t.Error("IsReadOnly wrong")
	}
	if h.IsReadOnly(T0) {
		t.Error("t0 is an update transaction by definition")
	}
	if got := h.ReadOnlyTransactions(); !reflect.DeepEqual(got, []TxnID{1, 3}) {
		t.Errorf("ReadOnlyTransactions = %v", got)
	}
}

func TestTransactionsSorted(t *testing.T) {
	h := MustParse("w5(x) r2(x) w9(y) c5 c2 c9")
	if got := h.Transactions(); !reflect.DeepEqual(got, []TxnID{2, 5, 9}) {
		t.Errorf("Transactions = %v", got)
	}
}

func TestProjections(t *testing.T) {
	h := MustParse(paperExample1)
	upd := h.UpdateSubhistory()
	// t1 and t3 are read-only; update sub-history holds t2 and t4 only.
	if got := upd.String(); got != "w2(IBM) c2 w4(Sun) c4" {
		t.Errorf("UpdateSubhistory = %q", got)
	}
	h2 := MustParse("r1(x) w2(x) a2 c1")
	com := h2.CommittedProjection()
	if got := com.String(); got != "r1(x) c1" {
		t.Errorf("CommittedProjection = %q", got)
	}
}

func TestReadsFrom(t *testing.T) {
	h := MustParse(paperExample1)
	rf := h.ReadsFrom()
	want := []ReadFrom{
		{Reader: 1, Obj: "IBM", Writer: T0},
		{Reader: 3, Obj: "IBM", Writer: 2},
		{Reader: 3, Obj: "Sun", Writer: T0},
		{Reader: 1, Obj: "Sun", Writer: 4},
	}
	if !reflect.DeepEqual(rf, want) {
		t.Errorf("ReadsFrom = %v, want %v", rf, want)
	}
}

func TestLiveSets(t *testing.T) {
	// Example 4 from the paper:
	h := MustParse("w1(ob1) w1(ob2) c1 r2(ob1) w2(ob1) c2 r3(ob2) w3(ob2) c3")
	live3 := h.Live(3)
	// LIVE(t3) = {t1, t3} (t3 reads ob2 written by t1).
	want := map[TxnID]bool{3: true, 1: true}
	if !reflect.DeepEqual(live3, want) {
		t.Errorf("Live(3) = %v, want %v", live3, want)
	}
	live2 := h.Live(2)
	if !reflect.DeepEqual(live2, map[TxnID]bool{2: true, 1: true}) {
		t.Errorf("Live(2) = %v", live2)
	}
	// Transitive closure: t5 reads from t4 which reads from t1.
	h2 := MustParse("w1(a) c1 r4(a) w4(b) c4 r5(b) c5")
	live5 := h2.Live(5)
	if !reflect.DeepEqual(live5, map[TxnID]bool{5: true, 4: true, 1: true}) {
		t.Errorf("Live(5) = %v", live5)
	}
	// Reading an initial value puts T0 in the live set.
	h3 := MustParse("r1(z) c1")
	if !h3.Live(1)[T0] {
		t.Error("reading initial value should include T0 in LIVE")
	}
}

func TestWritersReadSetWriteSet(t *testing.T) {
	h := MustParse("w1(a) w2(a) r2(b) w1(b) c1 c2")
	if got := h.Writers("a"); !reflect.DeepEqual(got, []TxnID{1, 2}) {
		t.Errorf("Writers(a) = %v", got)
	}
	if got := h.ReadSet(2); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("ReadSet(2) = %v", got)
	}
	if got := h.WriteSet(1); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("WriteSet(1) = %v", got)
	}
	if got := h.ReadSet(1); len(got) != 0 {
		t.Errorf("ReadSet(1) = %v, want empty", got)
	}
}

func TestCheckWellFormed(t *testing.T) {
	good := []string{
		paperExample1,
		"w1(x) c1",
		"r1(x) r1(y) w1(x) c1",
		"", // empty history is fine
	}
	for _, s := range good {
		if err := MustParse(s).CheckWellFormed(); err != nil {
			t.Errorf("CheckWellFormed(%q) = %v, want nil", s, err)
		}
	}
	bad := []string{
		"c1 r1(x)",       // event after commit
		"a1 w1(x)",       // event after abort
		"c1 c1",          // double commit
		"r1(x) r1(x) c1", // double read
		"w1(x) w1(x) c1", // double write
	}
	for _, s := range bad {
		if err := MustParse(s).CheckWellFormed(); err == nil {
			t.Errorf("CheckWellFormed(%q) should fail", s)
		}
	}
}

func TestCheckReadsBeforeWrites(t *testing.T) {
	if err := MustParse("r1(x) w1(y) c1").CheckReadsBeforeWrites(); err != nil {
		t.Errorf("reads-first history rejected: %v", err)
	}
	if err := MustParse("w1(y) r1(x) c1").CheckReadsBeforeWrites(); err == nil {
		t.Error("read after write should be rejected")
	}
	// Interleaving with other transactions is fine.
	if err := MustParse("r1(x) w2(a) r2(b)").CheckReadsBeforeWrites(); err == nil {
		t.Error("t2 reads after writing; should be rejected")
	}
}

func TestCloneIndependence(t *testing.T) {
	h := MustParse("r1(x) c1")
	c := h.Clone()
	c.Append(Write(2, "y"))
	if h.Len() != 2 {
		t.Error("mutating clone affected original")
	}
}

func TestRandomHistoryWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		cfg := DefaultGenConfig()
		cfg.AbortFraction = 0.2
		cfg.LeaveSomeOpen = trial%2 == 0
		h := RandomHistory(rng, cfg)
		if err := h.CheckWellFormed(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, h)
		}
		if err := h.CheckReadsBeforeWrites(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, h)
		}
	}
}

func TestRandomHistorySerialUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		cfg := DefaultGenConfig()
		cfg.SerialUpdates = true
		h := RandomHistory(rng, cfg)
		if err := h.CheckWellFormed(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, h)
		}
		// Update transactions must not interleave with one another.
		upd := h.UpdateSubhistory()
		var order []TxnID
		for _, op := range upd.Ops() {
			if len(order) == 0 || order[len(order)-1] != op.Txn {
				order = append(order, op.Txn)
			}
		}
		seen := map[TxnID]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("trial %d: update txn %d interleaves\n%s", trial, id, h)
			}
			seen[id] = true
		}
	}
}

func TestOpStringForms(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Read(1, "x"), "r1(x)"},
		{Write(2, "y"), "w2(y)"},
		{Commit(3), "c3"},
		{Abort(4), "a4"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if OpKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
