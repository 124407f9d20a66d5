package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

// cycleImage is everything a listener can read off one published cycle,
// copied out: the values byte for byte and the control matrix entry by
// entry.
func cycleImage(cb *bcast.CycleBroadcast) string {
	var b bytes.Buffer
	for j, v := range cb.Values {
		fmt.Fprintf(&b, "%d=%q ", j, v)
	}
	n := cb.Matrix.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fmt.Fprintf(&b, "%d,", cb.Matrix.At(i, j))
		}
	}
	return b.String()
}

// TestStartCycleValuesImmutable is the invariant StartCycle's copy-free
// publish rests on: a committed value slice, like a shared matrix
// column, is replaced by the install path and never written. Cycle k is
// published (to the caller and to an in-process subscriber), then every
// object it carries is overwritten through each of the three commit
// entrances; cycle k must still read exactly as it was published.
func TestStartCycleValuesImmutable(t *testing.T) {
	const n = 6
	initial := make([][]byte, n)
	for i := range initial {
		initial[i] = []byte(fmt.Sprintf("init-%d--", i))
	}
	s, err := New(Config{Objects: n, ObjectBits: 64, Algorithm: protocol.FMatrix, InitialValues: initial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub := s.Subscribe(4)
	if first := s.StartCycle(); first.Written != nil {
		t.Errorf("cycle 1: Written = %v, want nil: there is no cycle before it to differ from", first.Written)
	}
	if err := s.SubmitUpdate(protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{readAt(5, 1)},
		Writes: []protocol.ObjectWrite{write(0, "first-0"), write(3, "first-3")},
	}); err != nil {
		t.Fatal(err)
	}
	<-sub.C // cycle 1

	k := s.StartCycle() // cycle 2: the initial values and the commit above
	heard := <-sub.C
	if heard != k {
		t.Fatal("the subscriber was handed a different cycle object")
	}
	before := cycleImage(k)

	// Single-shot uplink commit over objects 0 and 1.
	if err := s.SubmitUpdate(protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{readAt(0, 2)},
		Writes: []protocol.ObjectWrite{write(0, "XXXXXXXX"), write(1, "XXXXXXXX")},
	}); err != nil {
		t.Fatal(err)
	}
	// A cross-shard projection over objects 2 and 3, installed through
	// ApplyRemote.
	across := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{readAt(2, 2)},
		Writes: []protocol.ObjectWrite{write(2, "YYYYYYYY"), write(3, "YYYYYYYY")},
	}
	if err := SubmitAcross([]*Server{s}, []protocol.UpdateRequest{across}, []bool{true}); err != nil {
		t.Fatal(err)
	}
	// Server-local transaction over objects 4 and 5, then 0 again.
	txn := s.Begin()
	if v, err := txn.Read(4); err != nil {
		t.Fatal(err)
	} else {
		v[0] = '!' // a Txn read is the caller's own copy
	}
	for _, obj := range []int{4, 5, 0} {
		if err := txn.Write(obj, []byte("ZZZZZZZZ")); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	if after := cycleImage(k); after != before {
		t.Errorf("cycle %d changed after it was published:\n before %s\n after  %s", k.Number, before, after)
	}
	next := s.StartCycle()
	for j, want := range []string{"ZZZZZZZZ", "XXXXXXXX", "YYYYYYYY", "YYYYYYYY", "ZZZZZZZZ", "ZZZZZZZZ"} {
		if string(next.Values[j]) != want {
			t.Errorf("cycle %d object %d = %q, want %q", next.Number, j, next.Values[j], want)
		}
	}
	if cycleImage(k) != before {
		t.Error("publishing the next cycle changed the previous one")
	}
	// Written names what each cycle's commits moved, whichever entrance
	// they took: sorted, distinct, and empty — not nil — once nothing did.
	quiet := s.StartCycle()
	for _, c := range []struct {
		cb   *bcast.CycleBroadcast
		want []int
	}{{k, []int{0, 3}}, {next, []int{0, 1, 2, 3, 4, 5}}, {quiet, []int{}}} {
		if c.cb.Written == nil || !slices.Equal(c.cb.Written, c.want) {
			t.Errorf("cycle %d: Written = %#v, want %#v", c.cb.Number, c.cb.Written, c.want)
		}
	}
}

// TestInitialValuesReleased: New copies the seed database and lets go of
// it. The caller's slices are collectable while the server lives — they
// were pinned for its lifetime, 308 KB at the Table 1 layout — and
// writing to them afterwards never shows in a cycle.
func TestInitialValuesReleased(t *testing.T) {
	const n = 4
	initial := make([][]byte, n)
	freed := make(chan int, n)
	for i := range initial {
		initial[i] = bytes.Repeat([]byte{byte('a' + i)}, 64)
		runtime.SetFinalizer(&initial[i][0], func(*byte) { freed <- 1 })
	}
	s, err := New(Config{Objects: n, ObjectBits: 512, Algorithm: protocol.RMatrix, InitialValues: initial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range initial {
		initial[i][0] = '!'
	}
	for j, v := range s.StartCycle().Values {
		if want := bytes.Repeat([]byte{byte('a' + j)}, 64); !bytes.Equal(v, want) {
			t.Errorf("object %d = %q after the caller wrote to its seed value, want %q", j, v, want)
		}
	}
	initial = nil
	for got, deadline := 0, time.Now().Add(5*time.Second); got < n; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d seed values collected with the server alive: New still holds Config.InitialValues", got, n)
			}
		}
	}
	runtime.KeepAlive(s)
}

// TestStartCycleAllocs bounds what an untraced StartCycle allocates. At
// the Table 1 layout (n = 300, 1 KiB objects): the cycle, its value and
// column headers and the snapshot's marks — no value, no column, no
// fingerprint (it was 605 allocations and 1.13 MB when every value was
// copied and every column hashed). At the uplink-grouped shape (n = 512,
// g = 16) with every MC column filled: the cycle, its value headers and
// the O(g) grouped view — nothing else that grows with n, such as the
// walk over the n·g entries that priced a BCG1 frame nobody sent.
func TestStartCycleAllocs(t *testing.T) {
	// The least of three 100-cycle rounds: what else the runtime
	// allocates meanwhile only ever adds.
	perCycle := func(s *Server) (allocs, size uint64) {
		const runs = 100
		allocs, size = math.MaxUint64, math.MaxUint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				s.StartCycle()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
			size = min(size, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, size
	}

	initial := make([][]byte, 300)
	for i := range initial {
		initial[i] = make([]byte, 1024)
	}
	table1 := Config{Objects: 300, ObjectBits: 8192, Algorithm: protocol.FMatrix, InitialValues: initial}
	s, err := New(table1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.StartCycle()
	flatAllocs, flatSize := perCycle(s)
	if flatAllocs > 8 || flatSize >= 32<<10 {
		t.Errorf("StartCycle with a nil tracer: %d allocations, %d bytes; want <= 8 and < 32 KiB", flatAllocs, flatSize)
	}

	// A broadcast program is the transmitter's business: at the same
	// layout, a program-mode cycle costs no more than a flat one.
	if table1.Program, err = airsched.Build(LayoutOf(table1), airsched.ZipfWeights(300, 0.95), 3, 8); err != nil {
		t.Fatal(err)
	}
	ps, err := New(table1)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.StartCycle()
	if allocs, size := perCycle(ps); allocs > flatAllocs || size > flatSize {
		t.Errorf("program-mode StartCycle: %d allocations, %d bytes; the flat server takes %d, %d", allocs, size, flatAllocs, flatSize)
	}

	const n, g = 512, 16
	gs, err := New(Config{Objects: n, ObjectBits: 512, Algorithm: protocol.Grouped, Groups: g})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	cb := gs.StartCycle()
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 100; c++ {
		p := rng.Perm(n)
		for k := 0; k < 56; k++ {
			o := p[4*k:]
			if err := gs.SubmitUpdate(protocol.UpdateRequest{
				Reads:  []protocol.ReadAt{readAt(o[0], int64(cb.Number)), readAt(o[1], int64(cb.Number))},
				Writes: []protocol.ObjectWrite{write(o[2], "v"), write(o[3], "v")},
			}); err != nil {
				t.Fatal(err)
			}
		}
		cb = gs.StartCycle()
	}
	if nnz := cb.Grouped.Nonzeros(); nnz != n*g {
		t.Fatalf("MC holds %d entries after the fill, want all %d", nnz, n*g)
	}
	if allocs, size := perCycle(gs); allocs > 5 || size > n*24+2<<10 {
		t.Errorf("grouped StartCycle: %d allocations, %d bytes; want <= 5 and <= %d (the value headers + 2 KiB)", allocs, size, n*24+2<<10)
	}
}

// TestSnapshotPublishFingerprint: a traced server still stamps every
// snapshot-publish event with the FNV-1a hash of the control entries in
// column order — here recomputed entry by entry through Matrix.At, and
// pinned to the value this scenario hashed to when StartCycle copied
// each column to hash it.
func TestSnapshotPublishFingerprint(t *testing.T) {
	tr := obs.NewTracer(64)
	s, err := New(Config{Objects: 5, ObjectBits: 64, Algorithm: protocol.FMatrix, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.StartCycle()
	for _, req := range []protocol.UpdateRequest{
		{Writes: []protocol.ObjectWrite{write(0, "a"), write(2, "b")}},
		{Reads: []protocol.ReadAt{readAt(3, 1)}, Writes: []protocol.ObjectWrite{write(4, "c")}},
	} {
		if err := s.SubmitUpdate(req); err != nil {
			t.Fatal(err)
		}
	}
	s.StartCycle()
	if err := s.SubmitUpdate(protocol.UpdateRequest{Reads: []protocol.ReadAt{readAt(0, 2)}, Writes: []protocol.ObjectWrite{write(1, "d")}}); err != nil {
		t.Fatal(err)
	}
	cb := s.StartCycle()

	h, prime := uint64(14695981039346656037), uint64(1099511628211)
	h = (h ^ 1) * prime
	for j := 0; j < 5; j++ {
		for i := 0; i < 5; i++ {
			h = (h ^ uint64(cb.Matrix.At(i, j))) * prime
		}
	}
	var got []int64
	for _, e := range tr.Events() {
		if e.Kind == obs.EvSnapshotPublish {
			got = append(got, e.Arg)
		}
	}
	if len(got) != 3 || got[2] != int64(h) {
		t.Fatalf("snapshot-publish fingerprints %v, want three ending in %d", got, int64(h))
	}
	if want := []int64{-643547718191645116, 2940855019612526759, -7671846964846958279}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("snapshot-publish fingerprints %v, want %v as before", got, want)
	}
}
