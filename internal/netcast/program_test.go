package netcast

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// newProgramServer serves a multi-disk, (1,m)-indexed broadcast program
// over TCP.
func newProgramServer(t *testing.T, alg protocol.Algorithm, n, disks, indexM int, opts Options) (*server.Server, *Server, *airsched.Program) {
	t.Helper()
	layout := bcast.LayoutFor(alg, n, 64, 8, 0)
	prog, err := airsched.Build(layout, airsched.ZipfWeights(n, 0.95), disks, indexM)
	if err != nil {
		t.Fatal(err)
	}
	bsrv, err := server.New(server.Config{Objects: n, ObjectBits: 64, Algorithm: alg, Audit: true, Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ns.Close()
		bsrv.Close()
	})
	return bsrv, ns, prog
}

// A flat-listening Tuner must reassemble program-mode streams into
// ordinary cycles: the stock client runs unchanged on top.
func TestProgramBroadcastOverTCP(t *testing.T) {
	bsrv, ns, prog := newProgramServer(t, protocol.FMatrix, 8, 3, 4, Options{})
	if len(prog.Slots()) == 8 {
		t.Fatal("want a real multi-disk program, hot objects repeating")
	}

	txn := bsrv.Begin()
	if err := txn.Write(0, []byte("air-hi")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	tuner, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	cli := client.New(client.Config{Algorithm: protocol.FMatrix}, tuner.Subscribe(8))
	awaitSubscribers(t, ns, 1)

	for c := 1; c <= 5; c++ {
		if n, err := ns.Step(); err != nil || n != 1 {
			t.Fatalf("Step = %d, %v", n, err)
		}
		cb, ok := cli.AwaitCycle()
		if !ok {
			t.Fatal("no cycle received")
		}
		if int(cb.Number) != c {
			t.Fatalf("cycle %d, want %d", cb.Number, c)
		}
		if cb.Matrix == nil {
			t.Fatal("reassembly lost the matrix")
		}
		rd := cli.BeginReadOnly()
		v, err := rd.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(v), "air-hi") {
			t.Fatalf("read %q", v)
		}
		if _, err := rd.Commit(); err != nil {
			t.Fatal(err)
		}
		// Mid-run commits must keep flowing through reassembled cycles.
		up := bsrv.Begin()
		up.Write(1, []byte{byte(c)})
		if err := up.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// Every occurrence of an object within one major cycle must carry the
// cycle-start control column (Theorems 1 and 2: re-broadcast copies
// validate identically), even with commits racing the transmission.
// The flat-listening reassembler reads nothing out of an index segment,
// but it still decodes every one: a malformed segment fails the stream.
func TestAssemblerRejectsMalformedIndex(t *testing.T) {
	frame, err := wire.EncodeIndexFrame(&wire.IndexFrame{Number: 1, M: 1, Frames: 3, NextIndex: 3, Offsets: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	a := assembler{chain: BucketChain{}}
	if cb, err := a.feed(frame); cb != nil || err != nil {
		t.Fatalf("well-formed index segment: %v, %v", cb, err)
	}
	if _, err := a.feed(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated index segment accepted")
	}
}

func TestProgramRebroadcastColumnsIdentical(t *testing.T) {
	bsrv, ns, prog := newProgramServer(t, protocol.FMatrix, 8, 3, 2, Options{RefreshEvery: 3})
	conn, err := net.Dial("tcp", ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	awaitSubscribers(t, ns, 1)

	frames := airsched.NewTimeline(prog).FrameCount()
	lastCol := map[int][]cmatrix.Cycle{}
	lastSeq := map[int]uint32{}
	for c := 1; c <= 4; c++ {
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
		// Commit while the cycle is conceptually "on air".
		up := bsrv.Begin()
		up.Write(0, []byte{byte(c)})
		if err := up.Commit(); err != nil {
			t.Fatal(err)
		}
		seen := map[int][]cmatrix.Cycle{}
		for i := 0; i < frames; i++ {
			frame, err := ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if wire.KindOf(frame) == wire.KindIndex {
				continue
			}
			_, obj, seq, delta, _, err := wire.BucketInfo(frame)
			if err != nil {
				t.Fatal(err)
			}
			var prev []cmatrix.Cycle
			if delta {
				if lastSeq[obj]+1 != seq {
					t.Fatalf("cycle %d obj %d: delta chain gap (%d -> %d)", c, obj, lastSeq[obj], seq)
				}
				prev = lastCol[obj]
			}
			b, err := wire.DecodeBucket(frame, prev)
			if err != nil {
				t.Fatal(err)
			}
			lastSeq[obj], lastCol[obj] = seq, b.Column
			if first, ok := seen[obj]; ok {
				for k := range first {
					if first[k] != b.Column[k] {
						t.Fatalf("cycle %d obj %d: re-broadcast column differs at entry %d", c, obj, k)
					}
				}
			} else {
				seen[obj] = b.Column
			}
		}
	}
}

// Delta control columns must reduce transmitted bytes against
// always-full transmission of the same workload.
func TestProgramDeltaReducesBytes(t *testing.T) {
	run := func(refreshEvery int) (full, delta int64) {
		bsrv, ns, _ := newProgramServer(t, protocol.FMatrix, 10, 3, 4, Options{RefreshEvery: refreshEvery})
		for c := 1; c <= 12; c++ {
			if _, err := ns.Step(); err != nil {
				t.Fatal(err)
			}
			// A sparse workload: one object changes per cycle, so most
			// columns are unchanged and delta well.
			up := bsrv.Begin()
			up.Write(c%10, []byte{byte(c)})
			if err := up.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return ns.TransmittedBytes()
	}
	fullOnly, d0 := run(0)
	if d0 != 0 {
		t.Fatalf("RefreshEvery=0 sent %d delta bytes", d0)
	}
	withDeltas, d := run(4)
	if d == 0 {
		t.Fatal("RefreshEvery=4 never sent a delta")
	}
	if withDeltas+d >= fullOnly {
		t.Fatalf("delta mode sent %d+%d bytes, full-only sent %d", withDeltas, d, fullOnly)
	}
}

// The selective tuner must find objects via the (1,m) index — a few
// listened frames per read, dozing through the rest — and still follow
// delta chains correctly.
func TestSelectiveTunerReadObject(t *testing.T) {
	bsrv, ns, _ := newProgramServer(t, protocol.FMatrix, 12, 3, 4, Options{RefreshEvery: 2})
	for obj := 0; obj < 12; obj++ {
		up := bsrv.Begin()
		if err := up.Write(obj, []byte(fmt.Sprintf("v%02d", obj))); err != nil {
			t.Fatal(err)
		}
		if err := up.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	st, err := TuneSelective(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	awaitSubscribers(t, ns, 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ns.Step(); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	reads := 0
	for _, obj := range []int{0, 7, 0, 11, 3, 0} {
		b, err := st.ReadObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		reads++
		if b.Obj != obj {
			t.Fatalf("asked for %d, got %d", obj, b.Obj)
		}
		want := fmt.Sprintf("v%02d", obj)
		if !strings.HasPrefix(string(b.Value), want) {
			t.Fatalf("object %d: value %q, want prefix %q", obj, b.Value, want)
		}
		if len(b.Column) != 12 {
			t.Fatalf("object %d: column has %d entries", obj, len(b.Column))
		}
	}

	stats := st.Stats()
	if stats.FramesListened == 0 || stats.FramesDozed == 0 {
		t.Fatalf("stats not tracked: %+v", stats)
	}
	// The canonical path is 3 listened frames per read (probe, index,
	// data); allow slack for misses and lucky probes but the bound must
	// stay far below listening to everything.
	maxListened := int64(reads*3) + 3*stats.IndexMisses
	if stats.FramesListened > maxListened {
		t.Fatalf("listened to %d frames for %d reads (misses=%d), selective tuning should need at most %d",
			stats.FramesListened, reads, stats.IndexMisses, maxListened)
	}
	if stats.FramesDozed <= stats.FramesListened {
		t.Errorf("dozed %d vs listened %d: dozing should dominate on an indexed program",
			stats.FramesDozed, stats.FramesListened)
	}
}

func TestServeOptionsRejectsProgramMisuse(t *testing.T) {
	layout := bcast.LayoutFor(protocol.FMatrix, 4, 64, 8, 0)
	prog, err := airsched.Build(layout, airsched.ZipfWeights(4, 0.9), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	bsrv, err := server.New(server.Config{Objects: 4, ObjectBits: 64, Algorithm: protocol.FMatrix, Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	if _, err := ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", Options{DeltaEvery: 4}); err == nil {
		t.Fatal("cycle-level deltas on a program stream should be rejected")
	}
	plain, err := server.New(server.Config{Objects: 4, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := ServeOptions(plain, "127.0.0.1:0", "127.0.0.1:0", Options{RefreshEvery: 4}); err == nil {
		t.Fatal("RefreshEvery without a program should be rejected")
	}
}

// A server restart mid-subscription closes the tuner's medium; the
// client must be able to retune to the replacement server even though
// its cycle numbering restarts from 1.
func TestTunerServerRestart(t *testing.T) {
	start := func() (*server.Server, *Server) {
		bsrv, err := server.New(server.Config{Objects: 4, ObjectBits: 64, Algorithm: protocol.FMatrix})
		if err != nil {
			t.Fatal(err)
		}
		ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			bsrv.Close()
			t.Fatal(err)
		}
		return bsrv, ns
	}

	bsrvA, nsA := start()
	tunerA, err := Tune(nsA.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tunerA.Close()
	cli := client.New(client.Config{Algorithm: protocol.FMatrix}, tunerA.Subscribe(8))
	awaitSubscribers(t, nsA, 1)
	for c := 1; c <= 3; c++ {
		if _, err := nsA.Step(); err != nil {
			t.Fatal(err)
		}
		if _, ok := cli.AwaitCycle(); !ok {
			t.Fatal("no cycle from server A")
		}
	}
	if cli.Current().Number != 3 {
		t.Fatalf("client at cycle %d, want 3", cli.Current().Number)
	}

	// Server dies mid-subscription: the tuner's medium closes, and the
	// client's subscription reports the end of the stream.
	nsA.Close()
	bsrvA.Close()
	if err := tunerA.Close(); err != nil {
		t.Fatalf("tuner should shut down cleanly on server death, got %v", err)
	}
	if _, ok := cli.AwaitCycle(); ok {
		t.Fatal("subscription should end when the server dies")
	}

	// A replacement server broadcasts from cycle 1 again. Without
	// Retune the client would silently discard every cycle (its
	// freshness check rejects numbers at or below the pre-restart
	// position) and stall forever.
	bsrvB, nsB := start()
	defer func() { nsB.Close(); bsrvB.Close() }()
	up := bsrvB.Begin()
	if err := up.Write(0, []byte("restart!")); err != nil {
		t.Fatal(err)
	}
	if err := up.Commit(); err != nil {
		t.Fatal(err)
	}
	tunerB, err := Tune(nsB.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tunerB.Close()
	gapsBefore := cli.Stats().Gaps
	cli.Retune(tunerB.Subscribe(8))
	awaitSubscribers(t, nsB, 1)
	if _, err := nsB.Step(); err != nil {
		t.Fatal(err)
	}
	cb, ok := cli.AwaitCycle()
	if !ok {
		t.Fatal("no cycle after retune")
	}
	if cb.Number != 1 {
		t.Fatalf("restart! cycle %d, want 1", cb.Number)
	}
	if cli.Stats().Gaps != gapsBefore+1 {
		t.Fatalf("retune should count a gap: %d -> %d", gapsBefore, cli.Stats().Gaps)
	}
	rd := cli.BeginReadOnly()
	v, err := rd.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(v), "restart!") {
		t.Fatalf("read %q after restart", v)
	}
}

// TestProgramEncodeReusesStorage holds ProgramEncoder.Encode, which
// builds every frame in storage it keeps from one cycle to the next, to
// the allocating encoders byte for byte — each frame rebuilt with
// wire.EncodeIndexFrame or wire.EncodeBucket from a fresh wire.Column and
// the column the object last carried — over cycles of changing control
// at the Table 1 layout (3 disks, a (1,8) index, a refresh every 4
// occurrences). Once every column has been sent, an Encode allocates
// nothing.
func TestProgramEncodeReusesStorage(t *testing.T) {
	const n, refresh = 300, 4
	layout := bcast.LayoutFor(protocol.FMatrix, n, 8*1024, 8, 0)
	prog, err := airsched.Build(layout, airsched.ZipfWeights(n, 0.95), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	tl := airsched.NewTimeline(prog)
	values := make([][]byte, n)
	for obj := range values {
		values[obj] = []byte{byte(obj), byte(obj >> 8)}
	}
	rng := rand.New(rand.NewSource(43))
	m := cmatrix.NewMatrix(n)
	var cycles []*bcast.CycleBroadcast
	for c := cmatrix.Cycle(1); c <= 6; c++ {
		cycles = append(cycles, &bcast.CycleBroadcast{Number: c, Layout: layout, Values: values, Matrix: m.Snapshot()})
		for k := 0; k < 30; k++ {
			p := rng.Perm(n)
			m.Apply(p[:2], p[2:4], c)
		}
	}

	enc := NewProgramEncoder(prog, refresh)
	seqs, prevCols := make([]uint32, n), make([][]cmatrix.Cycle, n)
	for _, cb := range cycles {
		frames, _, _, err := enc.Encode(cb)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range tl.Frames() {
			var want []byte
			if f.Kind == airsched.FrameIndex {
				offs := make([]int, n)
				for obj := range offs {
					offs[obj] = tl.NextOccurrence(i, obj)
				}
				want, err = wire.EncodeIndexFrame(&wire.IndexFrame{Number: cb.Number, Segment: f.Segment, M: prog.IndexM(),
					Frames: tl.FrameCount(), NextIndex: tl.NextIndexDistance(i), Offsets: offs})
			} else {
				seqs[f.Obj]++
				col, _ := wire.Column(cb, f.Obj, nil)
				var prev []cmatrix.Cycle
				if (seqs[f.Obj]-1)%refresh != 0 {
					prev = prevCols[f.Obj]
				}
				want, err = wire.EncodeBucket(&wire.Bucket{Number: cb.Number, Layout: layout, Obj: f.Obj, Seq: seqs[f.Obj],
					NextIndex: tl.NextIndexDistance(i), Value: values[f.Obj], Column: col}, prev)
				prevCols[f.Obj] = col
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frames[i], want) {
				t.Fatalf("cycle %d frame %d (%v): Encode wrote %d bytes that differ from the allocating encoder's %d",
					cb.Number, i, f.Kind, len(frames[i]), len(want))
			}
		}
	}

	next := 0
	encode := func() {
		if _, _, _, err := enc.Encode(cycles[next%len(cycles)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if allocs := testing.AllocsPerRun(2*len(cycles), encode); allocs != 0 {
		t.Fatalf("a warm Encode of %d frames allocates %.0f objects, want 0", tl.FrameCount(), allocs)
	}
}
