package server

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

func newTestServer(t *testing.T, alg protocol.Algorithm, n int) *Server {
	t.Helper()
	s, err := New(Config{
		Objects:    n,
		ObjectBits: 64,
		Algorithm:  alg,
		Audit:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Objects: 0, ObjectBits: 8, Algorithm: protocol.FMatrix}); err == nil {
		t.Error("zero objects should fail")
	}
	if _, err := New(Config{Objects: 3, ObjectBits: 0, Algorithm: protocol.FMatrix}); err == nil {
		t.Error("zero object bits should fail")
	}
	if _, err := New(Config{Objects: 3, ObjectBits: 8, Algorithm: protocol.Grouped, Groups: 9}); err == nil {
		t.Error("bad group count should fail")
	}
	s, err := New(Config{Objects: 3, ObjectBits: 8, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	if s.Layout().TimestampBits != 8 {
		t.Error("timestamp bits should default to 8")
	}
}

func TestInitialValuesAndLocalTxn(t *testing.T) {
	s, err := New(Config{
		Objects: 2, ObjectBits: 64, Algorithm: protocol.FMatrix,
		InitialValues: [][]byte{[]byte("a"), []byte("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	txn := s.Begin()
	v, err := txn.Read(0)
	if err != nil || string(v) != "a" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	if err := txn.Write(1, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	// Reading your own write returns the buffered value.
	if v, _ := txn.Read(1); string(v) != "b2" {
		t.Errorf("read-own-write = %q", v)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// The committed value is visible to a new transaction.
	txn2 := s.Begin()
	if v, _ := txn2.Read(1); string(v) != "b2" {
		t.Errorf("committed value = %q", v)
	}
	if got := s.cCommits.Load(); got != 1 {
		t.Errorf("server_commits = %d, want 1", got)
	}
}

func TestLocalTxnConflict(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 2)
	t1 := s.Begin()
	t2 := s.Begin()
	if _, err := t1.Read(0); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("Commit = %v, want ErrConflict", err)
	}
	if got := s.cAborts.Load(); got != 1 {
		t.Errorf("server_conflict_aborts = %d, want 1", got)
	}
	// Write-only transactions never conflict (no reads to validate).
	t3 := s.Begin()
	t3.Write(0, []byte("z"))
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnConflictNamesFirstStaleRead: Commit validates reads in the
// order they were made, so with every read stale the error names the
// first one, every time.
func TestTxnConflictNamesFirstStaleRead(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 4)
	for rep := 0; rep < 20; rep++ {
		txn := s.Begin()
		for _, obj := range []int{2, 0, 3, 1} {
			if _, err := txn.Read(obj); err != nil {
				t.Fatal(err)
			}
		}
		w := s.Begin()
		for obj := 0; obj < 4; obj++ {
			w.Write(obj, []byte{byte(rep)})
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		txn.Write(0, nil)
		err := txn.Commit()
		if !errors.Is(err, ErrConflict) || !strings.Contains(err.Error(), "object 2 changed") {
			t.Fatalf("rep %d: Commit = %v, want ErrConflict naming object 2", rep, err)
		}
	}
}

func TestTxnFinishedAndAbort(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 2)
	txn := s.Begin()
	txn.Write(0, []byte("v"))
	txn.Abort()
	if _, err := txn.Read(0); !errors.Is(err, ErrTxnFinished) {
		t.Error("read after abort should fail")
	}
	if err := txn.Write(0, nil); !errors.Is(err, ErrTxnFinished) {
		t.Error("write after abort should fail")
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Error("commit after abort should fail")
	}
	// Aborted write must not be visible.
	check := s.Begin()
	if v, _ := check.Read(0); len(v) != 0 {
		t.Errorf("aborted write leaked: %q", v)
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	// Read-only local transactions commit trivially.
}

func TestTxnBadObject(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 2)
	txn := s.Begin()
	if _, err := txn.Read(5); err == nil {
		t.Error("out-of-range read should fail")
	}
	if err := txn.Write(-1, nil); err == nil {
		t.Error("out-of-range write should fail")
	}
}

func TestValueMustFitBroadcastSlot(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 2) // 64-bit slots
	txn := s.Begin()
	if err := txn.Write(0, make([]byte, 8)); err != nil {
		t.Errorf("8 bytes fit a 64-bit slot: %v", err)
	}
	if err := txn.Write(0, make([]byte, 9)); err == nil {
		t.Error("9 bytes must not fit a 64-bit slot")
	}
	txn.Abort()
	err := s.SubmitUpdate(protocol.UpdateRequest{
		Writes: []protocol.ObjectWrite{{Obj: 0, Value: make([]byte, 9)}},
	})
	if err == nil {
		t.Error("uplink write must respect the slot size too")
	}
}

func TestStartCycleSnapshotsAndControl(t *testing.T) {
	for _, alg := range []protocol.Algorithm{protocol.FMatrix, protocol.FMatrixNo, protocol.RMatrix, protocol.Datacycle} {
		t.Run(alg.String(), func(t *testing.T) {
			s := newTestServer(t, alg, 3)
			cb1 := s.StartCycle()
			if cb1.Number != 1 {
				t.Fatalf("first cycle number = %d", cb1.Number)
			}
			// A commit during cycle 1 is stamped cycle 1 and visible from
			// cycle 2's snapshot.
			txn := s.Begin()
			txn.Write(0, []byte("v1"))
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			if len(cb1.Values[0]) != 0 {
				t.Error("cycle 1 snapshot must not see the later commit")
			}
			cb2 := s.StartCycle()
			if string(cb2.Values[0]) != "v1" {
				t.Errorf("cycle 2 value = %q", cb2.Values[0])
			}
			switch alg {
			case protocol.FMatrix, protocol.FMatrixNo:
				if cb2.Matrix == nil || cb2.Matrix.At(0, 0) != 1 {
					t.Error("matrix snapshot should record the cycle-1 commit")
				}
				if cb1.Matrix.At(0, 0) != 0 {
					t.Error("cycle 1 matrix must be untouched")
				}
			default:
				if cb2.Vector == nil || cb2.Vector.At(0) != 1 {
					t.Error("vector snapshot should record the cycle-1 commit")
				}
			}
		})
	}
}

func TestGroupedBroadcast(t *testing.T) {
	s, err := New(Config{Objects: 4, ObjectBits: 64, Algorithm: protocol.Grouped, Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.StartCycle()
	txn := s.Begin()
	txn.Write(3, []byte("z"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	cb := s.StartCycle()
	if cb.Grouped == nil {
		t.Fatal("grouped layout must broadcast the grouped matrix")
	}
	// Object 3 is in the second group; its row-3 entry is cycle 1.
	if cb.Grouped.Bound(3, 3) != 1 {
		t.Errorf("MC(3, group(3)) = %d, want 1", cb.Grouped.Bound(3, 3))
	}
	if cb.Grouped.Bound(3, 0) != 0 {
		t.Errorf("MC(3, group(0)) = %d, want 0", cb.Grouped.Bound(3, 0))
	}
}

func TestSubmitUpdateValidation(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 3)
	s.StartCycle() // cycle 1
	// Client read obj 0 at cycle 1, writes obj 1: valid (nothing
	// committed yet).
	err := s.SubmitUpdate(protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 0, Cycle: 1}},
		Writes: []protocol.ObjectWrite{{Obj: 1, Value: []byte("w")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Another client that read obj 1 at cycle 1 must now fail: obj 1 was
	// committed during cycle 1.
	err = s.SubmitUpdate(protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 1, Cycle: 1}},
		Writes: []protocol.ObjectWrite{{Obj: 2, Value: []byte("v")}},
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("SubmitUpdate = %v, want ErrConflict", err)
	}
	// A read at cycle 2 (after the overwrite) is fine.
	s.StartCycle()
	err = s.SubmitUpdate(protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 1, Cycle: 2}},
		Writes: []protocol.ObjectWrite{{Obj: 2, Value: []byte("v")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bad object ids are rejected.
	if err := s.SubmitUpdate(protocol.UpdateRequest{Reads: []protocol.ReadAt{{Obj: 7, Cycle: 1}}}); err == nil {
		t.Error("bad read object should fail")
	}
	if err := s.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: -2}}}); err == nil {
		t.Error("bad write object should fail")
	}
	if got := s.cUplink.Load(); got != 5 {
		t.Errorf("server_uplink_requests = %d, want 5 (every received request counts)", got)
	}
}

func TestAuditLog(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 3)
	s.StartCycle()
	txn := s.Begin()
	txn.Read(0)
	txn.Write(1, []byte("a"))
	txn.Write(2, []byte("b"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	log := s.AuditLog()
	if len(log) != 1 {
		t.Fatalf("audit entries = %d", len(log))
	}
	e := log[0]
	if len(e.ReadSet) != 1 || e.ReadSet[0] != 0 {
		t.Errorf("ReadSet = %v", e.ReadSet)
	}
	if len(e.WriteSet) != 2 || e.Cycle != 1 {
		t.Errorf("WriteSet = %v Cycle = %d", e.WriteSet, e.Cycle)
	}
}

func TestClosedServer(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 2)
	sub := s.Subscribe(1)
	txn := s.Begin()
	s.Close()
	if cb := s.StartCycle(); cb != nil {
		t.Error("StartCycle on closed server should return nil")
	}
	if _, err := txn.Read(0); !errors.Is(err, ErrClosed) {
		t.Error("read on closed server should fail")
	}
	if err := s.SubmitUpdate(protocol.UpdateRequest{}); !errors.Is(err, ErrClosed) {
		t.Error("SubmitUpdate on closed server should fail")
	}
	if _, ok := <-sub.C; ok {
		t.Error("subscriptions should be closed")
	}
	txn2 := s.Begin()
	txn2.Write(0, []byte("x"))
	if err := txn2.Commit(); !errors.Is(err, ErrClosed) {
		t.Error("commit on closed server should fail")
	}
}

// The control matrix the server broadcasts must always equal the matrix
// computed from scratch from its own audit log (Theorem 2 end-to-end).
func TestBroadcastMatrixMatchesAuditLog(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := newTestServer(t, protocol.FMatrix, 4)
	for c := 0; c < 20; c++ {
		cb := s.StartCycle()
		ref := cmatrix.FromLog(4, s.AuditLog())
		if !cb.Matrix.Equal(ref) {
			t.Fatalf("cycle %d: broadcast matrix diverges from definition\n%s\nvs\n%s",
				cb.Number, cb.Matrix, ref)
		}
		for k := 0; k < rng.Intn(3); k++ {
			txn := s.Begin()
			for _, o := range rng.Perm(4)[:rng.Intn(3)] {
				txn.Read(o)
			}
			for _, o := range rng.Perm(4)[:1+rng.Intn(2)] {
				txn.Write(o, []byte{byte(c), byte(k)})
			}
			if err := txn.Commit(); err != nil && !errors.Is(err, ErrConflict) {
				t.Fatal(err)
			}
		}
	}
}

// Concurrent local transactions must remain conflict serializable: the
// version-validated commits are equivalent to their commit order.
func TestConcurrentLocalTxns(t *testing.T) {
	s := newTestServer(t, protocol.RMatrix, 8)
	s.StartCycle()
	var wg sync.WaitGroup
	commitErr := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				txn := s.Begin()
				src, dst := rng.Intn(8), rng.Intn(8)
				if _, err := txn.Read(src); err != nil {
					commitErr[g] = err
					return
				}
				txn.Write(dst, []byte(fmt.Sprintf("g%d-i%d", g, i)))
				if err := txn.Commit(); err != nil && !errors.Is(err, ErrConflict) {
					commitErr[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range commitErr {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	commits := s.cCommits.Load()
	if commits == 0 {
		t.Fatal("no transactions committed")
	}
	// The audit log length matches the commit counter.
	if int64(len(s.AuditLog())) != commits {
		t.Errorf("audit entries %d != commits %d", len(s.AuditLog()), commits)
	}
}

func TestProgramDrivenCycles(t *testing.T) {
	prog, err := airsched.Build(
		bcast.LayoutFor(protocol.FMatrix, 8, 64, 8, 0),
		airsched.ZipfWeights(8, 0.95), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Objects: 8, ObjectBits: 64, Algorithm: protocol.FMatrix, Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Program() != prog {
		t.Fatal("server does not hand out its program")
	}
	cb := s.StartCycle()

	// Re-broadcast consistency (Theorem 1/2): commits during the cycle
	// must not change the published cycle's control column — every
	// occurrence of an object within the major cycle reads the same
	// column as the cycle-start copy.
	before := append([]cmatrix.Cycle(nil), cb.Column(0).Col...)
	txn := s.Begin()
	if _, err := txn.Read(1); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	after := cb.Column(0).Col
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("published column mutated by mid-cycle commit at entry %d: %d -> %d", i, before[i], after[i])
		}
	}
	// The next cycle sees the commit.
	cb2 := s.StartCycle()
	if cb2.Matrix.Equal(cb.Matrix) {
		t.Fatal("next cycle did not pick up the commit")
	}
}

func TestProgramLayoutMismatch(t *testing.T) {
	prog, err := airsched.Build(
		bcast.LayoutFor(protocol.FMatrix, 8, 64, 8, 0),
		airsched.ZipfWeights(8, 0.95), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Objects: 9, ObjectBits: 64, Algorithm: protocol.FMatrix, Program: prog}); err == nil {
		t.Fatal("mismatched program layout accepted")
	}
	if _, err := New(Config{Objects: 8, ObjectBits: 64, Algorithm: protocol.RMatrix, Program: prog}); err == nil {
		t.Fatal("mismatched control kind accepted")
	}
}

// TestWriteFreeSubmitIsNotACommit: an uplink request with no writes is
// accepted (its reads were current) but installs nothing, so it must
// not consume a commit slot, a per-cycle commit count or an audit entry
// — exactly what SubmitAcross does for a read-only projection.
func TestWriteFreeSubmitIsNotACommit(t *testing.T) {
	tr := obs.NewTracer(16)
	s, err := New(Config{Objects: 3, ObjectBits: 64, Algorithm: protocol.FMatrix, Audit: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	s.StartCycle()
	if err := s.SubmitUpdate(protocol.UpdateRequest{Reads: []protocol.ReadAt{{Obj: 0, Cycle: 1}}}); err != nil {
		t.Fatalf("write-free request with current reads: %v", err)
	}
	s.StartCycle()
	if c, u, a := s.cCommits.Load(), s.cUplink.Load(), s.cAborts.Load(); c != 0 || u != 1 || a != 0 {
		t.Fatalf("%d commits, %d uplink requests, %d aborts; want 0, 1, 0", c, u, a)
	}
	if log := s.AuditLog(); len(log) != 0 {
		t.Fatalf("audit log = %v, want empty", log)
	}
	var verdicts, cycleStarts []int64
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.EvUplinkVerdict:
			verdicts = append(verdicts, e.Arg)
		case obs.EvCycleStart:
			cycleStarts = append(cycleStarts, e.Arg)
		}
	}
	if !reflect.DeepEqual(verdicts, []int64{1}) {
		t.Fatalf("uplink verdict args = %v, want one accept", verdicts)
	}
	if !reflect.DeepEqual(cycleStarts, []int64{0, 0}) {
		t.Fatalf("commits per cycle = %v, want none in either cycle", cycleStarts)
	}
	if err := s.VerifyControl(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitUpdateAllocs bounds the steady-state allocations of one
// accepted SubmitUpdate by what the per-request-map implementation it
// replaced measured on the same three requests.
func TestSubmitUpdateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		alg                     protocol.Algorithm
		n, groups               int
		reads, writes, valBytes int
		max                     float64
	}{
		{"F-Matrix n=300, 4 reads + 4x1KiB writes", protocol.FMatrix, 300, 0, 4, 4, 1024, 10},
		{"grouped n=512 g=16, 2+2", protocol.Grouped, 512, 16, 2, 2, 8, 9},
		{"vector n=32, 1+1", protocol.RMatrix, 32, 0, 1, 1, 8, 3},
	} {
		s, err := New(Config{Objects: tc.n, ObjectBits: int64(tc.valBytes) * 8, Algorithm: tc.alg, Groups: tc.groups})
		if err != nil {
			t.Fatal(err)
		}
		s.StartCycle()
		// Reads and writes touch disjoint objects, so the cycle-1 reads
		// stay current however often the request repeats.
		var req protocol.UpdateRequest
		for i := 0; i < tc.reads; i++ {
			req.Reads = append(req.Reads, protocol.ReadAt{Obj: i, Cycle: 1})
		}
		for i := 0; i < tc.writes; i++ {
			req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: tc.reads + i, Value: make([]byte, tc.valBytes)})
		}
		got := testing.AllocsPerRun(200, func() {
			if err := s.SubmitUpdate(req); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per SubmitUpdate, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// TestShapeKeepsSetsOnlyForAudit: without Audit an accepted SubmitUpdate
// allocates only the copies of its written values, as shape builds the
// read and write sets in the server's scratch; with Audit every commit
// keeps sets of its own, which later submits leave as they were.
func TestShapeKeepsSetsOnlyForAudit(t *testing.T) {
	req := func(k int) protocol.UpdateRequest {
		return protocol.UpdateRequest{
			Reads:  []protocol.ReadAt{{Obj: k % 4, Cycle: 1}},
			Writes: []protocol.ObjectWrite{{Obj: 4 + k%4, Value: []byte{1}}, {Obj: 8 + k%4, Value: []byte{2}}},
		}
	}
	for _, audit := range []bool{false, true} {
		s, err := New(Config{Objects: 12, ObjectBits: 8, Algorithm: protocol.FMatrix, Audit: audit})
		if err != nil {
			t.Fatal(err)
		}
		s.StartCycle()
		if !audit {
			r := req(0)
			if got := testing.AllocsPerRun(100, func() {
				if err := s.SubmitUpdate(r); err != nil {
					t.Fatal(err)
				}
			}); got != float64(len(r.Writes)) {
				t.Errorf("%.1f allocs per SubmitUpdate without Audit, want %d (the written values)", got, len(r.Writes))
			}
			continue
		}
		for k := 0; k < 8; k++ {
			if err := s.SubmitUpdate(req(k)); err != nil {
				t.Fatal(err)
			}
		}
		for k, c := range s.AuditLog() {
			r := req(k)
			if !slices.Equal(c.ReadSet, []int{r.Reads[0].Obj}) || !slices.Equal(c.WriteSet, []int{r.Writes[0].Obj, r.Writes[1].Obj}) {
				t.Fatalf("audited commit %d has sets %v, %v: a later submit overwrote them", k, c.ReadSet, c.WriteSet)
			}
		}
		if err := s.VerifyControl(); err != nil {
			t.Fatal(err)
		}
	}
}
