package netcast

import (
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// matrixCycle is a Table 1 shaped cycle (F-Matrix, 1 KiB objects,
// TS = 8) of n objects at the given number, every entry one of the last
// 200 cycles before it.
func matrixCycle(t *testing.T, rng *rand.Rand, n int, number cmatrix.Cycle) *bcast.CycleBroadcast {
	t.Helper()
	cb := &bcast.CycleBroadcast{Number: number, Layout: bcast.LayoutFor(protocol.FMatrix, n, 8192, 8, 0), Values: make([][]byte, n)}
	cols := make([][]cmatrix.Cycle, n)
	for j := range cols {
		cb.Values[j] = make([]byte, 1024)
		rng.Read(cb.Values[j])
		cols[j] = make([]cmatrix.Cycle, n)
		for i := range cols[j] {
			cols[j][i] = number - 1 - cmatrix.Cycle(rng.Intn(200))
		}
	}
	var err error
	if cb.Matrix, err = cmatrix.MatrixOver(cols); err != nil {
		t.Fatal(err)
	}
	return cb
}

// TestFrameDecoderViewsFullFrames: a tuner hears a BCC1 frame as a view
// over it — the cycle, its value headers and the view, nothing that
// grows with n² (it was 6 allocations and 738 KB when every frame was
// decoded into a matrix) — and keeps nothing of it. A BCD1 cycle delta
// after it is refused by name: only program mode's bucket deltas go on
// the air.
func TestFrameDecoderViewsFullFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prev := matrixCycle(t, rng, 300, 1000)
	full, err := wire.EncodeCycle(prev)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	allocs, size := ^uint64(0), ^uint64(0)
	for i := 0; i < runs; i++ {
		d := NewFrameDecoder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cb, err := d.Decode(full)
		runtime.ReadMemStats(&after)
		if err != nil || cb.View == nil || cb.Matrix != nil {
			t.Fatalf("Decode: view %v, matrix %v, err %v", cb != nil && cb.View != nil, cb != nil && cb.Matrix != nil, err)
		}
		allocs, size = min(allocs, after.Mallocs-before.Mallocs), min(size, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs > 3 || size > 9<<10 {
		t.Errorf("Decode of a Table 1 frame: %d allocations, %d bytes; want <= 3 and <= 9 KiB", allocs, size)
	}

	var slot bcast.FrameSlot
	f := slot.Get(len(full))
	copy(f.Data, full)
	d := NewFrameDecoder()
	cb, err := d.decode(f.Data, f)
	if err != nil || cb == nil || cb.Number != prev.Number || cb.Frame != f {
		t.Fatalf("full frame: %+v, %v", cb, err)
	}
	snap := cb.Snapshot()
	for j := 0; j < 300; j++ {
		for i := 0; i < 300; i++ {
			if got := snap.Bound(i, j); got != prev.Matrix.At(i, j) {
				t.Fatalf("full frame: C(%d, %d) = %d, want %d", i, j, got, prev.Matrix.At(i, j))
			}
		}
	}
	f.Release() // the tuner's count, the only one: the frame goes back to the slot
	if slot.Get(len(full)) != f {
		t.Fatal("the decoder kept a count on the full frame")
	}
	delta, err := wire.EncodeCycleDelta(prev, matrixCycle(t, rng, 300, 1001))
	if err != nil {
		t.Fatal(err)
	}
	if cb, err := d.Decode(delta); cb != nil || err == nil || !strings.Contains(err.Error(), "cycle-delta frame on the broadcast stream") {
		t.Fatalf("BCD1 frame after a full one: %+v, %v; want the cycle-delta refusal", cb, err)
	}
}

// tunerShapes are the BCC1 streams a tuner views in place: Table 1's
// matrix control, fanout-small's R-Matrix vector and uplink-grouped's
// dense grouped control.
var tunerShapes = []struct {
	name string
	cfg  server.Config
}{
	{"table1", stepShapes[0].cfg},
	{"vector", fanoutShape},
	{"grouped", stepShapes[1].cfg},
}

// tunerFrame is the BCC1 frame of cycle 3 of a cfg-shaped server that
// took a commit in each cycle before.
func tunerFrame(t testing.TB, cfg server.Config) []byte {
	t.Helper()
	bsrv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	for k := range 2 {
		commitOne(t, bsrv, cfg, k)
		bsrv.StartCycle()
	}
	frame, err := wire.EncodeCycle(bsrv.StartCycle())
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// decodeRecycled is one tuner cycle past its socket read: frame is read
// into a frame from slot and decoded, and the tuner's count let go, so
// the frame and the cycle riding it go back to the slot.
func decodeRecycled(tb testing.TB, d *FrameDecoder, slot *bcast.FrameSlot, frame []byte) {
	f := slot.Get(len(frame))
	copy(f.Data, frame)
	cb, err := d.decode(f.Data, f)
	if err != nil || cb != &f.Cycle || cb.View == nil {
		tb.Fatalf("decode: %+v, %v; want a view riding its frame", cb, err)
	}
	f.Release()
}

// TestTunerDecodeAllocs: once its slot has a frame of the stream's size,
// a tuner's decode allocates nothing — the cycle, its Values window
// slice and its view are the ones the recycled frame carries — under
// matrix, vector and dense grouped control alike. (A vector frame was 6
// allocations when it was decoded into a cmatrix.Vector, and any view 3
// before the cycle rode its frame.) A framepoison build drops a released
// cycle's Values, so it allocates them again.
func TestTunerDecodeAllocs(t *testing.T) {
	if bcast.Poisoned {
		t.Skip("framepoison drops a released cycle's Values")
	}
	for _, shape := range tunerShapes {
		t.Run(shape.name, func(t *testing.T) {
			frame := tunerFrame(t, shape.cfg)
			var slot bcast.FrameSlot
			d := NewFrameDecoder()
			decodeRecycled(t, d, &slot, frame)
			if got := testing.AllocsPerRun(100, func() { decodeRecycled(t, d, &slot, frame) }); got != 0 {
				t.Errorf("a recycled %d-byte frame decodes with %v allocations, want 0", len(frame), got)
			}
		})
	}
}

// BenchmarkTunerDecode is one tuner cycle past its socket read at each
// tunerShapes stream: the frame copied into a recycled frame (the
// socket's copy), viewed, and released.
func BenchmarkTunerDecode(b *testing.B) {
	for _, shape := range tunerShapes {
		b.Run(shape.name, func(b *testing.B) {
			frame := tunerFrame(b, shape.cfg)
			var slot bcast.FrameSlot
			d := NewFrameDecoder()
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for b.Loop() {
				decodeRecycled(b, d, &slot, frame)
			}
		})
	}
}

// TestTunerRefusesNoneLayout: no server broadcasts F-Matrix-No's (free)
// control, so a BCC1 frame under the none layout is a stray: the tuner
// ends its stream with the view's refusal and publishes no cycle, where
// it once published one whose first read panicked.
func TestTunerRefusesNoneLayout(t *testing.T) {
	frame, err := wire.EncodeCycle(&bcast.CycleBroadcast{
		Number: 1, Layout: bcast.LayoutFor(protocol.FMatrixNo, 4, 64, 8, 0),
		Values: make([][]byte, 4), Matrix: cmatrix.NewMatrix(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tn, err := Tune(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sub := tn.Subscribe(4)
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	if cb, ok := <-sub.C; ok {
		t.Fatalf("the tuner published cycle %d of a none-layout frame", cb.Number)
	}
	if err := tn.Close(); err == nil || !strings.Contains(err.Error(), "none-layout cycle frame") {
		t.Fatalf("the stream ended with %v, want the none-layout refusal", err)
	}
}

// TestReleasedCycleIsPoisoned: under the framepoison tag the last
// release of a tuner's frame poisons the cycle riding it with its bytes,
// so a holder that kept the cycle, or its view, past its count reads no
// cycle: the number is below 1, Values is nil and the zeroed view panics
// on its first bound.
func TestReleasedCycleIsPoisoned(t *testing.T) {
	if !bcast.Poisoned {
		t.Skip("needs the framepoison build tag")
	}
	for _, shape := range tunerShapes {
		t.Run(shape.name, func(t *testing.T) {
			frame := tunerFrame(t, shape.cfg)
			var slot bcast.FrameSlot
			f := slot.Get(len(frame))
			copy(f.Data, frame)
			cb, err := NewFrameDecoder().decode(f.Data, f)
			if err != nil || cb.Number != 3 {
				t.Fatalf("decode: %+v, %v", cb, err)
			}
			view := cb.View
			f.Release()
			if cb.Number >= 1 || cb.Values != nil {
				t.Fatalf("a released cycle reads as cycle %d with %d values", cb.Number, len(cb.Values))
			}
			defer func() {
				if recover() == nil {
					t.Fatal("a released view answered a bound")
				}
			}()
			view.Bound(0, 0)
		})
	}
}
