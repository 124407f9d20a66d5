package wire

import (
	"bytes"
	"math/rand"
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
// at its exact length, plus a scratch column; the decoder makes the
// cycle, its value headers, one n² array and the matrix over it. (They
// were 323 allocations / 2.28 MB and 608 / 1.86 MB when the frame grew
// by doubling and every value and column was a slice of its own.)
func TestCycleCodecAllocs(t *testing.T) {
	cb := table1Cycle(t)
	frame, err := EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := EncodeCycle(cb); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs, size := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	// The runtime rounds an allocation as large as the frame up to whole
	// 8 KiB pages; the encoder asks for len(frame) exactly.
	const page = 8 << 10
	if limit := uint64((len(frame)+page-1)/page*page + 300*8 + 1024); allocs > 4 || size > limit {
		t.Errorf("EncodeCycle: %d allocations, %d bytes; want <= 4 and <= %d (the frame in whole pages + one scratch column + 1 KiB)",
			allocs, size, limit)
	}
	if again, _ := EncodeCycle(cb); cap(again) != len(again) {
		t.Errorf("EncodeCycle sized its buffer at %d bytes for a frame of %d", cap(again), len(again))
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := DecodeCycle(frame); err != nil {
			t.Fatal(err)
		}
	}); got > 10 {
		t.Errorf("DecodeCycle: %.0f allocations, want <= 10", got)
	}
}
