package netcast

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// stepShapes are the classic full-frame servers Step's allocation pins
// and BenchmarkStep run at: air-table1's (F-Matrix, n = 300, 1 KiB
// objects, a 397,226-byte frame, patched in place) and uplink-grouped's
// dense grouped control (n = 512, g = 16, 64-byte objects, a
// 40,986-byte frame, encoded from scratch into the kept buffer). The
// grouped bound is half the frame, not less: StartCycle's 512 value
// headers alone are 12 KiB.
var stepShapes = []struct {
	name      string
	cfg       server.Config
	frame     int // bytes
	maxPerRun int // bytes a steady-state Step may allocate
}{
	{"table1", server.Config{Objects: 300, ObjectBits: 8192, Algorithm: protocol.FMatrix}, 397226, 397226 / 16},
	{"grouped", server.Config{Objects: 512, ObjectBits: 512, Algorithm: protocol.Grouped, Groups: 16}, 40986, 40986 / 2},
}

// stepServer serves cfg with subs subscribers that drain every frame
// into one buffer of their own, so the process allocates for Step alone.
func stepServer(t testing.TB, cfg server.Config, subs int) (*server.Server, *Server) {
	t.Helper()
	bsrv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ns.Close()
		bsrv.Close()
	})
	for i := 0; i < subs; i++ {
		conn, err := net.Dial("tcp", ns.BroadcastAddr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		go func() {
			buf := make([]byte, 64<<10)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}()
	}
	for ns.Subscribers() < subs {
		runtime.Gosched()
	}
	return bsrv, ns
}

// commitOne commits a write to object obj of a cfg-shaped server.
func commitOne(t testing.TB, bsrv *server.Server, cfg server.Config, obj int) {
	t.Helper()
	v := make([]byte, cfg.ObjectBits/8)
	v[0] = byte(obj)
	if err := bsrv.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: obj % cfg.Objects, Value: v}}}); err != nil {
		t.Fatal(err)
	}
}

// TestStepAllocBytes: a steady-state Step builds its frame in the one
// buffer the server keeps, so what it allocates is a small fraction of
// the frame — the cycle's snapshot and bookkeeping (a Table 1 Step
// allocated a whole frame, about 400 KB, when each was a fresh copy).
// Every cycle carries one commit, so the patch has a record to write.
func TestStepAllocBytes(t *testing.T) {
	for _, shape := range stepShapes {
		t.Run(shape.name, func(t *testing.T) {
			bsrv, ns := stepServer(t, shape.cfg, 1)
			const warm, runs = 5, 20
			var total uint64
			for i := 0; i < warm+runs; i++ {
				commitOne(t, bsrv, shape.cfg, i)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if n, err := ns.Step(); err != nil || n != 1 {
					t.Fatalf("Step = %d, %v", n, err)
				}
				runtime.ReadMemStats(&after)
				if i >= warm {
					total += after.TotalAlloc - before.TotalAlloc
				}
			}
			if len(ns.frame) != shape.frame {
				t.Fatalf("the kept frame is %d bytes, want %d", len(ns.frame), shape.frame)
			}
			if got := total / runs; got >= uint64(shape.maxPerRun) {
				t.Errorf("a steady-state Step allocates %d bytes, want under %d (the %d-byte frame is built in place)", got, shape.maxPerRun, shape.frame)
			}
		})
	}
}

// TestGroupedStepAllocBytes: at uplink-grouped's shape, a steady-state
// cycle of one commit into each of the 16 groups and a Step writes each
// group's MC column into the storage the group left at a released cycle,
// so it allocates no column bytes. Each commit reads two objects of
// other groups, which fills the columns: their 16 copies would take 128
// KiB (512 rows of 16 bytes); the cycle's own allocations — the commits
// and StartCycle's value headers, about 30 KiB — stay under a third of
// that.
func TestGroupedStepAllocBytes(t *testing.T) {
	cfg := stepShapes[1].cfg
	bsrv, ns := stepServer(t, cfg, 1)
	size := cfg.Objects / cfg.Groups
	value := make([]byte, cfg.ObjectBits/8)
	cycle := func(i int) {
		cur := bsrv.CurrentCycle()
		for s := 0; s < cfg.Groups; s++ {
			// Group s's object i mod size, reading two objects no commit of
			// this cycle writes.
			req := protocol.UpdateRequest{
				Reads: []protocol.ReadAt{
					{Obj: (s+1)%cfg.Groups*size + (i+1)%size, Cycle: cur},
					{Obj: (s+7)%cfg.Groups*size + (i*5+3)%size, Cycle: cur},
				},
				Writes: []protocol.ObjectWrite{{Obj: s*size + i%size, Value: value}},
			}
			if err := bsrv.SubmitUpdate(req); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := ns.Step(); err != nil || n != 1 {
			t.Fatalf("Step = %d, %v", n, err)
		}
	}
	const warm, runs = 100, 20
	if _, err := ns.Step(); err != nil { // reads need a cycle past 0
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		cycle(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+runs; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	const columns = 16 * 512 * 16
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= columns/3 {
		t.Errorf("a steady-state grouped cycle allocates %d bytes, want under %d: the MC columns go into recycled storage", got, columns/3)
	}
}

// fanoutShape is fanout-small's server: R-Matrix, n = 32, 64-byte
// objects, a 2,106-byte frame whose cost is the per-subscriber send.
var fanoutShape = server.Config{Objects: 32, ObjectBits: 512, Algorithm: protocol.RMatrix}

// withProgram returns cfg broadcasting a two-disk, (1,4)-indexed program.
func withProgram(t testing.TB, cfg server.Config) server.Config {
	t.Helper()
	prog, err := airsched.Build(bcast.LayoutFor(cfg.Algorithm, cfg.Objects, cfg.ObjectBits, 8, 0), airsched.ZipfWeights(cfg.Objects, 0.95), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Program = prog
	return cfg
}

// TestFanOutAllocsIndependentOfAudience: a subscriber costs the fan-out
// no allocation — the length prefixes and the write vector live in the
// server's own storage and the subscriber snapshot is kept between
// membership changes — so a steady-state Step allocates as much for
// four subscribers as for one (it was 25 against 28 while each write
// made its own 4-byte header), in classic mode's one frame and program
// mode's timeline of frames alike.
func TestFanOutAllocsIndependentOfAudience(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  server.Config
	}{
		{"classic", fanoutShape},
		{"program", withProgram(t, fanoutShape)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := map[int]float64{}
			for _, subs := range []int{1, 4} {
				_, ns := stepServer(t, tc.cfg, subs)
				allocs[subs] = testing.AllocsPerRun(100, func() {
					if n, err := ns.Step(); err != nil || n != subs {
						t.Fatalf("Step = %d, %v; want %d subscribers", n, err, subs)
					}
				})
			}
			if allocs[1] != allocs[4] {
				t.Errorf("a steady-state Step allocates %.0f times with 1 subscriber, %.0f with 4", allocs[1], allocs[4])
			}
		})
	}
}

// TestFanOutSurvivesPartialWrites: each subscriber gets a cycle's frames
// in one gathered write, which a subscriber that drains slowly splits
// many times over; WriteTo rewrites its vector on every partial write,
// so each subscriber must get a vector of its own. Beside a subscriber
// that drains at once, the slow one — its server-side send buffer cut
// to 4 KiB, read 4 KiB at a time with a pause between reads — must still
// hear byte for byte the WriteFrame concatenation of every cycle's
// frames, on a Table 1 classic server (one 397 KB frame a cycle) and on
// a program-mode server (a timeline of frames a cycle). The send buffer
// is cut on the server's side because a loopback sender's buffer grows
// to take a whole Table 1 frame in one call, and a 4 KiB receive buffer
// stalls the stream on delayed acknowledgements instead.
func TestFanOutSurvivesPartialWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  server.Config
	}{
		{"table1", server.Config{Objects: 300, ObjectBits: 8192, Algorithm: protocol.FMatrix}},
		{"program", withProgram(t, server.Config{Objects: 64, ObjectBits: 512, Algorithm: protocol.FMatrix})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bsrv, err := server.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer bsrv.Close()
			ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ns.Close()
			cycles := bsrv.Subscribe(16)

			streams := make([]bytes.Buffer, 2)
			var wg sync.WaitGroup
			for i := range streams {
				conn, err := net.Dial("tcp", ns.BroadcastAddr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				awaitSubscribers(t, ns, i+1)
				slow := i == 1
				if slow {
					err = fmt.Errorf("no server-side connection from %s", conn.LocalAddr())
					ns.mu.Lock()
					for c := range ns.subs {
						if c.RemoteAddr().String() == conn.LocalAddr().String() {
							err = c.(*net.TCPConn).SetWriteBuffer(4096)
						}
					}
					ns.mu.Unlock()
					if err != nil {
						t.Fatal(err)
					}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, 64<<10)
					if slow {
						buf = buf[:4096]
					}
					for {
						n, err := conn.Read(buf)
						streams[i].Write(buf[:n])
						if err != nil {
							return
						}
						if slow {
							time.Sleep(50 * time.Microsecond)
						}
					}
				}()
			}

			var want bytes.Buffer
			var enc *ProgramEncoder
			if prog := bsrv.Program(); prog != nil {
				enc = NewProgramEncoder(prog, 0)
			}
			for c := 0; c < 3; c++ {
				commitOne(t, bsrv, tc.cfg, c)
				if n, err := ns.Step(); err != nil || n != 2 {
					t.Fatalf("Step = %d, %v; want 2 subscribers", n, err)
				}
				cb := <-cycles.C
				var frames [][]byte
				if enc != nil {
					frames, _, _, err = enc.Encode(cb)
				} else {
					var frame []byte
					frame, err = wire.EncodeCycle(cb)
					frames = [][]byte{frame}
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, frame := range frames {
					WriteFrame(&want, frame)
				}
			}
			ns.Close()
			wg.Wait()
			for i, name := range []string{"fast", "slow"} {
				if got := streams[i].Bytes(); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("the %s subscriber heard %d bytes, not the %d of the frames sent", name, len(got), want.Len())
				}
			}
		})
	}
}

// BenchmarkStep is one classic cycle on the server side — StartCycle,
// the frame built in the kept buffer, the fan-out to draining
// subscribers — with one commit per cycle made off the clock; B/op is
// what Step allocates. The stepShapes run with one subscriber, fanout
// (fanout-small's server) with four, so the send's cost per subscriber
// shows.
func BenchmarkStep(b *testing.B) {
	type bench struct {
		name string
		cfg  server.Config
		subs int
	}
	benches := []bench{{"fanout", fanoutShape, 4}}
	for _, shape := range stepShapes {
		benches = append(benches, bench{shape.name, shape.cfg, 1})
	}
	for _, bc := range benches {
		b.Run(bc.name, func(b *testing.B) {
			bsrv, ns := stepServer(b, bc.cfg, bc.subs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				commitOne(b, bsrv, bc.cfg, i)
				b.StartTimer()
				if _, err := ns.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
