package broadcastcc

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus micro-benchmarks of the protocol primitives. The
// figure benchmarks run the same sweeps as cmd/bcbench at a reduced
// transaction count so `go test -bench=.` stays tractable; the full
// 1000-transaction reproduction is `bcbench -figure all`. Each figure
// benchmark reports the mean response time (bit-units) of the most
// contended point as response-bit-units/op alongside wall-clock time.

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/experiments"
	"broadcastcc/internal/history"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/wire"
)

// sweepParallel bounds the figure sweeps' worker pool (0 = GOMAXPROCS,
// 1 = sequential). Results are identical either way; pass it after
// -args, e.g. `go test -bench Figure2a -args -sweep-parallel=1`.
var sweepParallel = flag.Int("sweep-parallel", 0, "sweep worker pool size for figure benchmarks (0 = GOMAXPROCS)")

// benchOptions keeps figure sweeps affordable per benchmark iteration.
func benchOptions(seed int64) experiments.Options {
	return experiments.Options{Txns: 120, MeasureFrom: 20, Seed: seed, MaxTime: 1e12, Parallelism: *sweepParallel}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	var last *experiments.Experiment
	for i := 0; i < b.N; i++ {
		e, err := experiments.ByID(id, benchOptions(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		last = e
	}
	if last != nil && len(last.Points) > 0 {
		pt := last.Points[len(last.Points)-1]
		for _, lbl := range last.Labels {
			b.ReportMetric(pt.Runs[lbl].ResponseMean, fmt.Sprintf("resp-%s", shortLabel(lbl)))
		}
	}
}

func shortLabel(lbl string) string {
	switch lbl {
	case "Datacycle":
		return "dc"
	case "R-Matrix":
		return "rm"
	case "F-Matrix":
		return "fm"
	case "F-Matrix-No":
		return "fmno"
	default:
		return lbl
	}
}

// BenchmarkTable1Defaults runs the paper's default configuration
// (Table 1) under each algorithm.
func BenchmarkTable1Defaults(b *testing.B) {
	for _, alg := range []Algorithm{Datacycle, RMatrix, FMatrix, FMatrixNo} {
		b.Run(alg.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultSimConfig()
				cfg.Algorithm = alg
				cfg.ClientTxns = 120
				cfg.MeasureFrom = 20
				cfg.Seed = int64(i + 1)
				r, err := RunSim(cfg)
				if err != nil {
					b.Fatal(err)
				}
				mean = r.ResponseTime.Mean()
			}
			b.ReportMetric(mean, "resp-bit-units")
		})
	}
}

// BenchmarkFigure2a: response time vs client transaction length.
func BenchmarkFigure2a(b *testing.B) { benchFigure(b, "2a") }

// BenchmarkFigure2b: restart ratio vs client transaction length.
func BenchmarkFigure2b(b *testing.B) { benchFigure(b, "2b") }

// BenchmarkFigure3a: response time vs server transaction length.
func BenchmarkFigure3a(b *testing.B) { benchFigure(b, "3a") }

// BenchmarkFigure3b: response time vs server transaction rate.
func BenchmarkFigure3b(b *testing.B) { benchFigure(b, "3b") }

// BenchmarkFigure4a: response time vs number of objects.
func BenchmarkFigure4a(b *testing.B) { benchFigure(b, "4a") }

// BenchmarkFigure4b: response time vs object size.
func BenchmarkFigure4b(b *testing.B) { benchFigure(b, "4b") }

// BenchmarkGroupedSpectrum: the Section 3.2.2 grouping ablation.
func BenchmarkGroupedSpectrum(b *testing.B) { benchFigure(b, "groups") }

// BenchmarkCachingSweep: the Section 3.3 weak-currency ablation.
func BenchmarkCachingSweep(b *testing.B) { benchFigure(b, "caching") }

// ---- Micro-benchmarks of the primitives ----

// BenchmarkMatrixApply measures the server-side cost of folding one
// committed transaction into the n×n control matrix (Theorem 2 rule).
func BenchmarkMatrixApply(b *testing.B) {
	for _, n := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := cmatrix.NewMatrix(n)
			rs := []int{1, 3, 5, 7}
			ws := []int{2, 4, 6, 8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Apply(rs, ws, cmatrix.Cycle(i+1))
			}
		})
	}
}

// BenchmarkMatrixClone measures the deep-copy snapshot cost the server
// used to pay per cycle under F-Matrix (kept as the baseline for
// BenchmarkSnapshot).
func BenchmarkMatrixClone(b *testing.B) {
	for _, n := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := cmatrix.NewMatrix(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Clone()
			}
		})
	}
}

// BenchmarkSnapshot measures one full broadcast cycle of control-state
// maintenance — take the per-cycle snapshot, then fold in the Table 1
// commit volume (~13 commits/cycle at the default rate, server txn
// length 8 with half writes) — comparing the old deep Clone against the
// copy-on-write Snapshot. allocs/op and B/op are the headline: COW pays
// for one column per commit after the snapshot, which all of the
// commit's written columns share, instead of all n².
func BenchmarkSnapshot(b *testing.B) {
	const commitsPerCycle = 13
	commitStream := func(n int) func() ([]int, []int) {
		rng := rand.New(rand.NewSource(99))
		return func() ([]int, []int) {
			var rs, ws []int
			for op := 0; op < 8; op++ {
				obj := rng.Intn(n)
				if rng.Float64() < 0.5 {
					rs = append(rs, obj)
				} else {
					ws = append(ws, obj)
				}
			}
			return rs, ws
		}
	}
	for _, n := range []int{100, 300, 1000} {
		for _, mode := range []string{"clone", "cow"} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				m := cmatrix.NewMatrix(n)
				next := commitStream(n)
				b.ReportAllocs()
				b.ResetTimer()
				var snap *cmatrix.Matrix
				for i := 0; i < b.N; i++ {
					if mode == "clone" {
						snap = m.Clone()
					} else {
						snap = m.Snapshot()
					}
					for c := 0; c < commitsPerCycle; c++ {
						rs, ws := next()
						m.Apply(rs, ws, cmatrix.Cycle(i+1))
					}
				}
				_ = snap
			})
		}
	}
}

// BenchmarkSweepParallel runs the Figure 2(a) sweep sequentially and
// with a GOMAXPROCS worker pool; the tables are byte-identical, so the
// ratio of the two wall-clock times is the parallel harness's speedup.
func BenchmarkSweepParallel(b *testing.B) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := benchOptions(int64(i + 1))
				opt.Txns = 60
				opt.MeasureFrom = 10
				opt.Parallelism = par
				if _, err := experiments.ByID("2a", opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidatorTryRead measures the client-side read-condition
// check with a read-set of the paper's default client length.
func BenchmarkValidatorTryRead(b *testing.B) {
	const n = 300
	m := cmatrix.NewMatrix(n)
	vec := cmatrix.NewVector(n)
	for _, alg := range []Algorithm{Datacycle, RMatrix, FMatrix} {
		b.Run(alg.String(), func(b *testing.B) {
			var snap protocol.Snapshot
			switch alg {
			case FMatrix:
				snap = m
			default:
				snap = vec
			}
			v := protocol.NewValidator(alg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Reset()
				for j := 0; j < 4; j++ {
					if !v.TryRead(snap, j, cmatrix.Cycle(i+1)) {
						b.Fatal("unexpected validation failure")
					}
				}
			}
		})
	}
}

// BenchmarkApprox measures the polynomial recognizer on a moderately
// large history (120 update + 60 read-only transactions).
func BenchmarkApprox(b *testing.B) {
	cfg := history.GenConfig{
		Objects: 50, UpdateTxns: 120, ReadOnlyTxns: 60,
		MaxReads: 6, MaxWrites: 4, ReadsFirst: true, SerialUpdates: true,
	}
	hists := make([]*history.History, 8)
	rng := rand.New(rand.NewSource(17))
	for i := range hists {
		hists[i] = history.RandomHistory(rng, cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Approx(hists[i%len(hists)])
	}
}

// BenchmarkServerCommitPath measures the live server's full commit path
// (begin, read, write, validate, install) under F-Matrix.
func BenchmarkServerCommitPath(b *testing.B) {
	srv, err := NewServer(ServerConfig{Objects: 300, ObjectBits: 8192, Algorithm: FMatrix})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := srv.Begin()
		if _, err := txn.Read(i % 300); err != nil {
			b.Fatal(err)
		}
		if err := txn.Write((i+7)%300, payload); err != nil {
			b.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeCycle measures serializing one broadcast cycle into
// its bitstream: an F-Matrix cycle at the Table 1 layout, the dense
// grouped cycle of uplink-grouped (bench/e2e), read off its MC columns,
// and a sparse BCG1 frame with many groups (n = 10⁴, g = 256).
func BenchmarkWireEncodeCycle(b *testing.B) {
	layout := bcast.LayoutFor(protocol.FMatrix, 300, 8192, 8, 0)
	table1 := &bcast.CycleBroadcast{
		Number: 100, Layout: layout,
		Values: make([][]byte, 300),
		Matrix: cmatrix.NewMatrix(300),
	}
	for j := range table1.Values {
		table1.Values[j] = make([]byte, 1024)
	}
	srv, grouped := uplinkGroupedServer(b)
	defer srv.Close()
	bcg1 := func(cb *bcast.CycleBroadcast) ([]byte, error) { return wire.EncodeGroupedCycle(cb, 1, false) }
	for _, c := range []struct {
		name   string
		cb     *bcast.CycleBroadcast
		encode func(*bcast.CycleBroadcast) ([]byte, error)
	}{
		{"table1", table1, wire.EncodeCycle},
		{"grouped", grouped, wire.EncodeCycle},
		{"grouped-sparse", sparseGroupedCycle(10000, 256), bcg1},
	} {
		b.Run(c.name, func(b *testing.B) {
			data, err := c.encode(c.cb)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.encode(c.cb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sparseGroupedCycle is a grouped cycle over a uniform n × g partition
// after n/2 commits of one read and one write each: most rows hold a few
// MC entries, so a row costs its entries rather than g.
func sparseGroupedCycle(n, g int) *bcast.CycleBroadcast {
	gc := cmatrix.NewGroupedControl(cmatrix.UniformPartition(n, g))
	rng := rand.New(rand.NewSource(1))
	for c := 1; c <= n/2; c++ {
		gc.Apply([]int{rng.Intn(n)}, []int{rng.Intn(n)}, cmatrix.Cycle(c))
	}
	cb := &bcast.CycleBroadcast{
		Number: cmatrix.Cycle(n/2 + 1), Layout: bcast.LayoutFor(protocol.Grouped, n, 512, 16, g),
		Values: make([][]byte, n), Grouped: gc.Grouped(),
	}
	for j := range cb.Values {
		cb.Values[j] = make([]byte, 64)
	}
	return cb
}

// BenchmarkWirePatchCycle measures what a sender that kept its last
// frame pays for the next one at the Table 1 layout: 8 update
// transactions of 4 writes each commit per cycle, and each frame is the
// one before it with those records rewritten in place.
func BenchmarkWirePatchCycle(b *testing.B) {
	srv, err := NewServer(ServerConfig{Objects: 300, ObjectBits: 8192, Algorithm: FMatrix})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	// A ring of consecutive cycles, patched one after another into one
	// frame that starts each lap as cycle 0's.
	const ring = 8
	rng := rand.New(rand.NewSource(1))
	cbs := make([]*bcast.CycleBroadcast, ring)
	for k := range cbs {
		cbs[k] = srv.StartCycle()
		for u := 0; u < 8; u++ {
			req := protocol.UpdateRequest{Writes: make([]protocol.ObjectWrite, 4)}
			for w, obj := range rng.Perm(300)[:4] {
				req.Writes[w] = protocol.ObjectWrite{Obj: obj, Value: make([]byte, 1024)}
				rng.Read(req.Writes[w].Value)
			}
			if err := srv.SubmitUpdate(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	first, err := wire.EncodeCycle(cbs[0])
	if err != nil {
		b.Fatal(err)
	}
	frame := append([]byte(nil), first...)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 1 + i%(ring-1)
		if k == 1 && i > 0 {
			b.StopTimer()
			copy(frame, first)
			b.StartTimer()
		}
		if _, patched, err := wire.PatchCycle(frame, cbs[k]); err != nil || !patched {
			b.Fatalf("cycle %d: patched %v, err %v", cbs[k].Number, patched, err)
		}
	}
}

// BenchmarkWireDecodeCycle measures the client-side decode of a full
// F-Matrix cycle frame.
func BenchmarkWireDecodeCycle(b *testing.B) {
	layout := bcast.LayoutFor(protocol.FMatrix, 300, 8192, 8, 0)
	cb := &bcast.CycleBroadcast{
		Number: 100, Layout: layout,
		Values: make([][]byte, 300),
		Matrix: cmatrix.NewMatrix(300),
	}
	data, err := wire.EncodeCycle(cb)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeCycle(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireViewCycle is BenchmarkWireDecodeCycle as a tuner hears
// the frame: wire.ViewCycle leaves the control in the frame, and the 16
// Bound calls are what a read transaction of four objects asks of it —
// at the Table 1 layout, and on uplink-grouped's dense grouped frame.
// At cycle 1000, past the first 2^8 cycles, where construction scans no
// entry.
func BenchmarkWireViewCycle(b *testing.B) {
	table1 := &bcast.CycleBroadcast{
		Number: 1000, Layout: bcast.LayoutFor(protocol.FMatrix, 300, 8192, 8, 0),
		Values: make([][]byte, 300),
		Matrix: cmatrix.NewMatrix(300),
	}
	srv, cb := uplinkGroupedServer(b)
	defer srv.Close()
	grouped := *cb
	grouped.Number = 1000
	for _, c := range []struct {
		name string
		cb   *bcast.CycleBroadcast
	}{{"table1", table1}, {"grouped", &grouped}} {
		b.Run(c.name, func(b *testing.B) {
			data, err := wire.EncodeCycle(c.cb)
			if err != nil {
				b.Fatal(err)
			}
			n := c.cb.Layout.Objects
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cb, err := wire.ViewCycle(data)
				if err != nil {
					b.Fatal(err)
				}
				snap := cb.Snapshot()
				for k := 0; k < 16; k++ {
					if c := snap.Bound(k%4*n/4, k/4*n/4); c >= cb.Number {
						b.Fatalf("C(i, j) = %d in cycle %d", c, cb.Number)
					}
				}
			}
		})
	}
}

// BenchmarkWireDecodeGroupedCycle measures the client-side decode of the
// uplink-grouped frame (bench/e2e): n = 512, 64-byte objects and the
// dense grouped layout with every one of the 512 × 16 MC entries set.
func BenchmarkWireDecodeGroupedCycle(b *testing.B) {
	srv, cb := uplinkGroupedServer(b)
	defer srv.Close()
	data, err := wire.EncodeCycle(cb)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeCycle(data); err != nil {
			b.Fatal(err)
		}
	}
}

// uplinkGroupedServer returns a server of the uplink-grouped shape
// (n = 512, 64-byte objects, g = 16) after 100 cycles of 56 accepted
// 2-read 2-write commits — enough to fill every MC column — and the
// cycle it last published.
func uplinkGroupedServer(b *testing.B) (*Server, *CycleBroadcast) {
	b.Helper()
	const n = 512
	srv, err := NewServer(ServerConfig{Objects: n, ObjectBits: 512, Algorithm: GroupedMatrix, Groups: 16})
	if err != nil {
		b.Fatal(err)
	}
	cb := srv.StartCycle()
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 100; c++ {
		p := rng.Perm(n)
		for k := 0; k < 56; k++ {
			o := p[4*k:]
			if err := srv.SubmitUpdate(UpdateRequest{
				Reads:  []ReadAt{{Obj: o[0], Cycle: cb.Number}, {Obj: o[1], Cycle: cb.Number}},
				Writes: []ObjectWrite{{Obj: o[2], Value: make([]byte, 64)}, {Obj: o[3], Value: make([]byte, 64)}},
			}); err != nil {
				b.Fatal(err)
			}
		}
		cb = srv.StartCycle()
	}
	if nnz := cb.Grouped.Nonzeros(); nnz != n*16 {
		b.Fatalf("MC holds %d entries after the fill, want all %d", nnz, n*16)
	}
	return srv, cb
}

// BenchmarkWireDelta measures encoding an incremental frame carrying a
// typical per-cycle change set (cf. bcbench -figure delta).
func BenchmarkWireDelta(b *testing.B) {
	layout := bcast.LayoutFor(protocol.FMatrix, 300, 8192, 8, 0)
	mk := func(number cmatrix.Cycle, m *cmatrix.Matrix) *bcast.CycleBroadcast {
		cb := &bcast.CycleBroadcast{Number: number, Layout: layout, Values: make([][]byte, 300), Matrix: m}
		for j := range cb.Values {
			cb.Values[j] = make([]byte, 1024)
		}
		return cb
	}
	m1 := cmatrix.NewMatrix(300)
	prev := mk(10, m1)
	m2 := m1.Clone()
	for k := 0; k < 40; k++ { // ~the default-rate commit volume
		m2.Apply([]int{k % 300}, []int{(k + 7) % 300, (k + 13) % 300}, 10)
	}
	cur := mk(11, m2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeCycleDelta(prev, cur); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleNextReady measures the broadcast-program lookup used
// on every simulated client read: Timeline.NextReady on the 3-disk
// airsched program of the "disks" figure (zipf θ=0.95, no index).
func BenchmarkScheduleNextReady(b *testing.B) {
	layout := bcast.LayoutFor(protocol.RMatrix, 300, 8192, 8, 0)
	p, err := airsched.Build(layout, airsched.ZipfWeights(300, 0.95), 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	tl := airsched.NewTimeline(p)
	major := float64(tl.MajorBits())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.NextReady(float64(i%1000)*major/1000, i%300)
	}
}

// BenchmarkUpdateConsistentExact measures the exponential exact checker
// on the paper's Example 1 — tiny, but the comparison with
// BenchmarkApprox shows the asymptotic gap the paper motivates APPROX
// with.
func BenchmarkUpdateConsistentExact(b *testing.B) {
	h, err := history.Parse("r1(IBM) w2(IBM) c2 r3(IBM) r3(Sun) w4(Sun) c4 r1(Sun) c1 c3")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !UpdateConsistent(h).OK {
			b.Fatal("example 1 must be update consistent")
		}
	}
}

// BenchmarkStartCycle measures the per-cycle broadcast production cost
// (snapshotting values and control information): at the Table 1 layout
// for the vector and the full matrix, and at the uplink-grouped shape
// with every MC column filled.
func BenchmarkStartCycle(b *testing.B) {
	run := func(b *testing.B, srv *Server) {
		defer srv.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if srv.StartCycle() == nil {
				b.Fatal("closed")
			}
		}
	}
	for _, alg := range []Algorithm{RMatrix, FMatrix} {
		b.Run(alg.String(), func(b *testing.B) {
			srv, err := NewServer(ServerConfig{Objects: 300, ObjectBits: 8192, Algorithm: alg})
			if err != nil {
				b.Fatal(err)
			}
			run(b, srv)
		})
	}
	b.Run("Grouped", func(b *testing.B) {
		srv, _ := uplinkGroupedServer(b)
		run(b, srv)
	})
}
