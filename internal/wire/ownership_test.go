package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// table1Cycle is a cycle at the paper's Table 1 layout (F-Matrix,
// n = 300, 1 KiB objects, TS = 8) with every value and entry filled.
func table1Cycle(t testing.TB) *bcast.CycleBroadcast {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	const n, number = 300, 1000
	cb := &bcast.CycleBroadcast{
		Number: number, Layout: bcast.LayoutFor(protocol.FMatrix, n, 8192, 8, 0),
		Values: make([][]byte, n),
	}
	cols := make([][]cmatrix.Cycle, n)
	for j := range cols {
		cb.Values[j] = make([]byte, 1024)
		rng.Read(cb.Values[j])
		cols[j] = make([]cmatrix.Cycle, n)
		for i := range cols[j] {
			cols[j][i] = cmatrix.Cycle(number - 1 - rng.Intn(255))
		}
	}
	var err error
	if cb.Matrix, err = cmatrix.MatrixOver(cols); err != nil {
		t.Fatal(err)
	}
	return cb
}

// TestDecodeCycleAliasesFrame pins the ownership contract in
// DecodeCycle's doc comment: the decoded values are windows onto the
// frame (so a write to the buffer after the fact would show through —
// which is why the caller gives the buffer up), each capped to its own
// slot, and nothing of the encoder's input is shared with its output.
func TestDecodeCycleAliasesFrame(t *testing.T) {
	cb := table1Cycle(t)
	frame, err := EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCycle(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Matrix.Equal(cb.Matrix) {
		t.Fatal("decoded matrix differs")
	}
	perObject := 1024 + 300
	for j, v := range got.Values {
		if !bytes.Equal(v, cb.Values[j]) {
			t.Fatalf("value %d differs", j)
		}
		off := headerBytes + j*perObject
		if &v[0] != &frame[off] {
			t.Fatalf("value %d is not the frame's own bytes at offset %d", j, off)
		}
		if cap(v) != 1024 {
			t.Fatalf("value %d has capacity %d: an append would run into the control column behind it", j, cap(v))
		}
	}
	frame[headerBytes+7] ^= 0xFF
	if got.Values[0][7] == cb.Values[0][7] {
		t.Error("a write to the frame did not show through the decoded value")
	}
	// The encoder's side of the contract: a frame is a fresh buffer that
	// shares nothing with the cycle it was made from.
	again, err := EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	again[headerBytes] ^= 0xFF
	if cb.Values[0][0] == again[headerBytes] {
		t.Error("the encoded frame aliases the cycle's value")
	}
}

// TestCycleCodecAllocs bounds what one Table 1 cycle costs the
// allocator on each side of the air: the encoder makes the frame, once,
// at its exact length, and a patch makes nothing — it rewrites the
// frame it is given where it lies, a matrix column packed straight from
// the matrix — while the decoder makes the cycle, its value headers,
// one n² array and the matrix over it. (They were 323 allocations /
// 2.28 MB and 608 / 1.86 MB when the frame grew by doubling and every
// value and column was a slice of its own.)
func TestCycleCodecAllocs(t *testing.T) {
	cb := table1Cycle(t)
	frame, err := EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	// The next cycle, 8 × 4 objects written: what PatchCycle is for.
	next := *cb
	next.Number, next.Values = cb.Number+1, append([][]byte(nil), cb.Values...)
	for j := 0; j < 300; j += 10 {
		next.Values[j] = bytes.Repeat([]byte{byte(j)}, 1024)
		next.Written = append(next.Written, j)
	}
	wantNext, err := EncodeCycle(&next)
	if err != nil {
		t.Fatal(err)
	}
	// The runtime rounds an allocation as large as the frame up to whole
	// 8 KiB pages; the encoders ask for len(frame) exactly.
	const page, runs = 8 << 10, 10
	limit := uint64((len(frame)+page-1)/page*page + 256)
	base := make([]byte, len(frame)) // cycle cb.Number's frame, restored before each patch
	for _, enc := range []struct {
		name          string
		encode        func() ([]byte, error)
		want          []byte
		allocs, bytes uint64
	}{
		{"EncodeCycle", func() ([]byte, error) { return EncodeCycle(cb) }, frame, 2, limit},
		{"PatchCycle", func() ([]byte, error) {
			copy(base, frame)
			patched, ok, err := PatchCycle(base, &next)
			if err == nil && (!ok || &patched[0] != &base[0]) {
				err = errors.New("not patched in place")
			}
			return patched, err
		}, wantNext, 0, 0},
	} {
		// The least of several runs: the collector's own allocations land
		// in the same counters, and only ever add.
		allocs, size := ^uint64(0), ^uint64(0)
		for i := 0; i < runs; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := enc.encode(); err != nil {
				t.Fatalf("%s: %v", enc.name, err)
			}
			runtime.ReadMemStats(&after)
			allocs, size = min(allocs, after.Mallocs-before.Mallocs), min(size, after.TotalAlloc-before.TotalAlloc)
		}
		if allocs > enc.allocs || size > enc.bytes {
			t.Errorf("%s: %d allocations, %d bytes; want <= %d and <= %d", enc.name, allocs, size, enc.allocs, enc.bytes)
		}
		if again, _ := enc.encode(); cap(again) != len(again) || !bytes.Equal(again, enc.want) {
			t.Errorf("%s: a buffer of %d bytes for a frame of %d, the right bytes: %v", enc.name, cap(again), len(again), bytes.Equal(again, enc.want))
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := DecodeCycle(frame); err != nil {
			t.Fatal(err)
		}
	}); got > 10 {
		t.Errorf("DecodeCycle: %.0f allocations, want <= 10", got)
	}
	// A grouped frame of the uplink-grouped shape with every MC entry set:
	// its columns are cut from one array sized by a count pass, not grown
	// entry by entry (168 allocations and 359 KB when they were).
	grouped, err := EncodeCycle(groupedCycle(t))
	if err != nil {
		t.Fatal(err)
	}
	allocs, size := ^uint64(0), ^uint64(0)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := DecodeCycle(grouped); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs, size = min(allocs, after.Mallocs-before.Mallocs), min(size, after.TotalAlloc-before.TotalAlloc)
	}
	// The decoded n·g timestamps, the same as sparse entries, three n-long
	// header slices (values, rows, partition) and 4 KiB for the rest.
	const n, g = 512, 16
	if limit := uint64(n*g*(8+16) + 3*n*24 + 4<<10); allocs > 10 || size > limit {
		t.Errorf("grouped DecodeCycle: %d allocations, %d bytes; want <= 10 and <= %d", allocs, size, limit)
	}
}

// groupedCycle is a cycle of the uplink-grouped shape (n = 512, 64-byte
// objects, TS = 8, g = 16) with every MC entry nonzero.
func groupedCycle(t testing.TB) *bcast.CycleBroadcast {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	const n, g, number = 512, 16, 1000
	cb := &bcast.CycleBroadcast{
		Number: number, Layout: bcast.LayoutFor(protocol.Grouped, n, 512, 8, g),
		Values: make([][]byte, n),
	}
	rows := make([][]cmatrix.Cycle, n)
	for i := range rows {
		cb.Values[i] = make([]byte, 64)
		rng.Read(cb.Values[i])
		rows[i] = make([]cmatrix.Cycle, g)
		for s := range rows[i] {
			rows[i][s] = cmatrix.Cycle(number - 1 - rng.Intn(255))
		}
	}
	var err error
	if cb.Grouped, err = cmatrix.GroupedFromRows(cmatrix.UniformPartition(n, g), rows); err != nil {
		t.Fatal(err)
	}
	return cb
}

// TestDecodeUpdateRequestInto pins the uplink request's ownership
// contract: each written value is a window onto the frame, capped at its
// own length, an empty value is nil, and a decode into a request warmed
// by an earlier one allocates nothing.
func TestDecodeUpdateRequestInto(t *testing.T) {
	sent := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 3, Cycle: 17}, {Obj: 0, Cycle: 1}},
		Writes: []protocol.ObjectWrite{{Obj: 5, Value: []byte("hello")}, {Obj: 6}, {Obj: 7, Value: []byte("bye")}},
	}
	frame := EncodeUpdateRequest(sent)
	var req protocol.UpdateRequest
	if err := DecodeUpdateRequestInto(&req, frame); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, sent) {
		t.Fatalf("decoded %+v, sent %+v", req, sent)
	}
	for i, w := range req.Writes {
		if w.Value == nil {
			continue
		}
		if cap(w.Value) != len(w.Value) {
			t.Errorf("write %d: cap %d past its length %d", i, cap(w.Value), len(w.Value))
		}
		if off := bytes.Index(frame, w.Value); off < 0 || &frame[off] != &w.Value[0] {
			t.Errorf("write %d: value is not a window onto the frame", i)
		}
	}
	if req.Writes[1].Value != nil {
		t.Errorf("empty value decoded as %#v, want nil", req.Writes[1].Value)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := DecodeUpdateRequestInto(&req, frame); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("%.0f allocs per decode into a warmed request, want 0", got)
	}
}
