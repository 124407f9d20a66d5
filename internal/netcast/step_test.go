package netcast

import (
	"net"
	"runtime"
	"testing"

	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
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

// TestFanOutAllocsIndependentOfAudience: a subscriber costs the fan-out
// no allocation — the length prefix is written from the server's own
// storage and the subscriber snapshot is kept between membership
// changes — so a steady-state Step allocates as much for four
// subscribers as for one (it was 25 against 28 while each write made
// its own 4-byte header).
func TestFanOutAllocsIndependentOfAudience(t *testing.T) {
	cfg := server.Config{Objects: 32, ObjectBits: 512, Algorithm: protocol.RMatrix}
	allocs := map[int]float64{}
	for _, subs := range []int{1, 4} {
		_, ns := stepServer(t, cfg, subs)
		allocs[subs] = testing.AllocsPerRun(100, func() {
			if n, err := ns.Step(); err != nil || n != subs {
				t.Fatalf("Step = %d, %v; want %d subscribers", n, err, subs)
			}
		})
	}
	if allocs[1] != allocs[4] {
		t.Errorf("a steady-state Step allocates %.0f times with 1 subscriber, %.0f with 4", allocs[1], allocs[4])
	}
}

// BenchmarkStep is one classic cycle on the server side — StartCycle,
// the frame built in the kept buffer, the fan-out to one draining
// subscriber — with one commit per cycle made off the clock; B/op is
// what Step allocates.
func BenchmarkStep(b *testing.B) {
	for _, shape := range stepShapes {
		b.Run(shape.name, func(b *testing.B) {
			bsrv, ns := stepServer(b, shape.cfg, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				commitOne(b, bsrv, shape.cfg, i)
				b.StartTimer()
				if _, err := ns.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
