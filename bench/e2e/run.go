package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// runOpts selects one run of one workload.
type runOpts struct {
	sp   *spec
	seed int64
	// seconds sets the length of the run: sp.cycles(seconds) measured
	// cycles, and in a traced run the replay's time budgets.
	seconds float64
	// trace selects the traced pass (per-layer metrics) instead of the
	// untraced one (end-to-end metrics).
	trace  bool
	outDir string
	// quick shrinks set-up, the yardstick and the replay to smoke-test size.
	quick bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo is what a run reports beyond the result line: the exact
// counts of the live pass and the host yardstick on both sides of it.
type runInfo struct {
	Workload    string     `json:"workload"`
	Seed        int64      `json:"seed"`
	Cycles      int64      `json:"cycles"`
	MeasuredS   float64    `json:"measured_s"` // how long those cycles took
	Accepted    int64      `json:"accepted"`
	Rejected    int64      `json:"rejected"`
	ReadTxns    int64      `json:"read_txns"`
	Restarts    int64      `json:"restarts"`
	YardstickMs [2]float64 `json:"yardstick_ms"`
	// HostMs is the median of the yardstick readings taken between the
	// blocks of an untraced pass: a reported time × HostMs ÷
	// refYardstickMs is the time as the clock read it.
	HostMs float64  `json:"host_ms,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// runResult is the result line of one run plus its runInfo.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	info      runInfo
}

func (r *runResult) set(defs []metricDef, name string, v float64) {
	for _, m := range defs {
		if m.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: m.unit}
			return
		}
	}
	panic("bench/e2e: metric " + name + " is not in the table")
}

// driftLimit is how far the host's speed may move, by the yardstick,
// within a run set or between two of them before they are not compared.
const driftLimit = 0.125

// drift is the distance between the slowest and the fastest of some
// yardstick readings as a share of the fastest.
func drift(ys ...float64) float64 {
	return slices.Max(ys)/slices.Min(ys) - 1
}

// yardstick reads the host's speed: the time of a fixed pure-CPU kernel
// that lives in cache — CRC-32 over a 2 MiB buffer, 32 passes a rep
// (64 MiB hashed), median of 45 reps — so that two runs can tell a
// slower program from a slower host. (Streaming 64 MiB from DRAM
// instead reads three times slower after any idle moment on the
// reference VM, whatever the host is doing; the in-cache kernel does
// not, and the workloads live in cache too.)
func yardstick(quick bool) float64 {
	// A process that has just started, or has just been waiting, runs
	// the first few hundred milliseconds of this kernel about a tenth
	// slower than one that has been busy: the warm reps are thrown away
	// so that the readings before and after a run are both of a busy CPU.
	yardstickReps(90, quick)
	return yardstickReps(45, quick)
}

// yardstickReps returns the median time of that many reps of the kernel,
// in milliseconds per 32 passes. It allocates nothing: it also runs
// inside the measured window.
func yardstickReps(reps int, quick bool) float64 {
	passes := 32
	if quick {
		passes, reps = 1, min(reps, 3)
	}
	if yardBuf[1] == 0 {
		for i := range yardBuf {
			yardBuf[i] = byte(i * 131)
		}
	}
	var times [90]float64
	for r := range times[:reps] {
		t0 := now()
		for p := 0; p < passes; p++ {
			yardstickSink ^= crc32.ChecksumIEEE(yardBuf[:])
		}
		times[r] = float64(now()-t0) / 1e6 * 32 / float64(passes)
	}
	slices.Sort(times[:reps])
	return times[reps/2]
}

// yardBuf is the kernel's working set, in the data segment like the
// harness's other buffers; yardstickSink keeps the compiler from
// dropping the kernel.
var (
	yardBuf       [2 << 20]byte
	yardstickSink uint32
)

// The time metrics of the untraced pass are reported at a reference
// host speed. The host this benchmark runs on — a small guest on a
// shared machine — changes speed by a third from one quarter of an hour
// to the next, and by a tenth from second to second, with unchanged
// code; no bound a regression gate could use survives that. So the
// measured window is cut into blocks with a short yardstick reading
// (hostReps reps, ~30 ms) between them, and each block's times are
// multiplied by refYardstickMs over the mean of the two readings around
// it: what the block would have taken on a host whose yardstick reads
// refYardstickMs. README.md has the A/A runs that compare the spreads
// with and without.
const (
	refYardstickMs = 3.5
	hostReps       = 9
)

// atReference is the factor that takes a time measured between two
// yardstick readings to the reference host speed.
func atReference(before, after float64) float64 {
	return refYardstickMs / ((before + after) / 2)
}

// setUp builds a live stack and runs the warm-up cycles.
func setUp(sp *spec, seed int64, audit bool, dir string) (*driver, error) {
	d, err := newDriver(sp, seed, audit, dir)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sp.warmup; i++ {
		if !d.runCycle(nil, nil) {
			d.close()
			return nil, fmt.Errorf("warm-up cycle %d: %s", i, strings.Join(d.failNotes, "; "))
		}
	}
	return d, nil
}

// marks is the process and program state read at the two ends of a
// measured window; every reported count is a difference of two.
type marks struct {
	t   int64
	cpu float64
	ms  runtime.MemStats

	cycles, txBytes                        int64
	accepted, rejected, readTxns, restarts int64 // the driver's own counts
	colsRewritten, conflictAborts          int64 // server registry
	reads, cacheHits, readAborts           int64 // client registries, all clients
}

func (d *driver) mark() *marks {
	m := &marks{
		cycles:         int64(d.cycle),
		txBytes:        d.ns.Obs().Counter("netcast_tx_bytes").Load(),
		accepted:       d.nAccepted,
		rejected:       d.nRejected,
		readTxns:       d.nReadTxns,
		restarts:       d.nRestarts,
		colsRewritten:  d.srv.Obs().Counter("server_control_cols_rewritten").Load(),
		conflictAborts: d.srv.Obs().Counter("server_conflict_aborts").Load(),
	}
	for _, c := range d.clients {
		st := c.Stats()
		m.reads += st.Reads
		m.cacheHits += st.CacheHits
		m.readAborts += st.ReadAborts
	}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuSeconds()
	m.t = now()
	return m
}

// runFor drives that many cycles; a traced block ends early rather than
// overflow the span buffer.
func (d *driver) runFor(cycles int, rec *recorder, tr *tracer) bool {
	for n := 0; n < cycles; n++ {
		if tr != nil && tr.full(d.spansPerCycle()) {
			return true
		}
		if !d.runCycle(rec, tr) {
			return false
		}
	}
	return true
}

// spansPerCycle bounds the spans one traced cycle records.
func (d *driver) spansPerCycle() int {
	sp := d.sp
	return 4 + sp.updates + sp.tuners*(1+sp.readTxns*(1+sp.txnReads))
}

// closeOpenSpans ends the spans of transactions still in flight when a
// traced block ends; the rest of such a transaction runs untraced.
func (d *driver) closeOpenSpans(tr *tracer) {
	t := now()
	for ci := range d.slots {
		for si := range d.slots[ci] {
			if s := &d.slots[ci][si]; s.span >= 0 {
				tr.close(s.span, t)
				s.span = -1
			}
		}
	}
}

// runWorkload performs one run: set-up, the measured live pass, the
// end-of-run checks, the untimed Audit pass and — for a traced run —
// the stage-by-stage replay.
func runWorkload(o runOpts) (*runResult, error) {
	sp := o.sp
	res := &runResult{Metrics: map[string]metricValue{}}
	res.info = runInfo{Workload: sp.name, Seed: o.seed}
	res.info.YardstickMs[0] = yardstick(o.quick)
	runtime.GC()

	scratch := filepath.Join(o.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var d *driver
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	// Set-up is performed several times and setup_s is the median: one
	// set-up is tenths of a second, and the first in a process pays for
	// page faults and lazy initialisation the others do not.
	setups := 5
	if o.quick {
		setups = 1
	}
	setupS := make([]float64, 0, setups)
	host := yardstickReps(hostReps, o.quick)
	for k := 0; k < setups; k++ {
		if d != nil {
			d.close()
			d = nil
		}
		t0 := now()
		nd, err := setUp(sp, o.seed, false, filepath.Join(scratch, fmt.Sprintf("qc-%d", k)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d = nd
		dt := float64(now()-t0) / 1e9
		next := yardstickReps(hostReps, o.quick)
		setupS = append(setupS, dt*atReference(host, next))
		host = next
	}

	var live liveInfo
	var end *marks
	var ok bool
	start := d.mark()
	if o.trace {
		live, end, ok = measureTraced(d, o, res, start)
	} else {
		end, ok = measureUntraced(d, o, res, start, medianOf(setupS))
	}
	if ok {
		d.finalChecks()
	}
	res.info.Cycles = end.cycles - start.cycles
	res.info.MeasuredS = float64(end.t-start.t) / 1e9
	res.info.Accepted = end.accepted - start.accepted
	res.info.Rejected = end.rejected - start.rejected
	res.info.ReadTxns = end.readTxns - start.readTxns
	res.info.Restarts = end.restarts - start.restarts
	res.Attempted, res.Failed = d.attempted, d.failed
	res.info.Notes = append(res.info.Notes, d.failNotes...)
	d.close()
	d = nil

	if ok {
		a, f, notes := auditPass(sp, o.seed, filepath.Join(scratch, "qc-audit"))
		res.Attempted += a
		res.Failed += f
		res.info.Notes = append(res.info.Notes, notes...)
	}
	if ok && o.trace {
		if err := replay(o, live, res); err != nil {
			res.Failed++
			res.info.Notes = append(res.info.Notes, "replay: "+err.Error())
		}
	}

	res.info.YardstickMs[1] = yardstick(o.quick)
	if o.trace {
		res.set(perLayer, "host.yardstick_ms", res.info.YardstickMs[0])
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// untracedBlocks is how many equal blocks the untraced pass is cut into.
const untracedBlocks = 16

// measureUntraced is the pass end-to-end metrics come from: plain
// lock-step cycles, nothing recorded but the four timings. The pass is
// cut into blocks; a time metric is computed per block (the median of
// the block's cycles or operations, the block's CPU time per cycle) and
// the median over the blocks is reported, so that a burst of host noise
// that covers a few blocks does not move the figure the way it moves a
// mean over the whole pass. Each block's times are taken to the
// reference host speed by the yardstick readings around it.
func measureUntraced(d *driver, o runOpts, res *runResult, start *marks, setupS float64) (*marks, bool) {
	rec := newRecorder(0)
	total := d.sp.cycles(o.seconds)
	// The four series, then CPU seconds per cycle; arrays, so that nothing
	// is allocated inside the measured window.
	var perBlock [numSeries + 1][untracedBlocks]float64
	var hosts [untracedBlocks + 1]float64
	blocks := 0
	ok := true
	hosts[0] = yardstickReps(hostReps, o.quick)
	for b := 0; b < untracedBlocks && ok; b++ {
		n := total*(b+1)/untracedBlocks - total*b/untracedBlocks
		if n == 0 {
			continue
		}
		cpu := cpuSeconds()
		ok = d.runFor(n, rec, nil)
		cpu = cpuSeconds() - cpu
		hosts[blocks+1] = yardstickReps(hostReps, o.quick)
		scale := atReference(hosts[blocks], hosts[blocks+1])
		perBlock[numSeries][blocks] = cpu / float64(n) * scale
		for i := range rec.s {
			perBlock[i][blocks] = rec.s[i].quantile(0.5) * scale
			rec.s[i].reset()
		}
		blocks++
	}
	end := d.mark()
	cycles := float64(end.cycles - start.cycles)
	if cycles == 0 {
		return end, false
	}
	res.info.HostMs = medianOf(hosts[:blocks+1])
	res.set(endToEnd, "cycle_ms", medianOf(perBlock[serCycle][:blocks])/1e6)
	res.set(endToEnd, "air_period_ms", medianOf(perBlock[serStep][:blocks])/1e6)
	res.set(endToEnd, "commit_us", medianOf(perBlock[serCommit][:blocks])/1e3)
	res.set(endToEnd, "read_txn_us", medianOf(perBlock[serReadTxn][:blocks])/1e3)
	res.set(endToEnd, "cpu_ms_per_cycle", medianOf(perBlock[numSeries][:blocks])*1e3)
	res.set(endToEnd, "air_bytes_per_cycle", float64(end.txBytes-start.txBytes)/cycles/float64(d.sp.tuners))
	res.set(endToEnd, "alloc_kb_per_cycle", float64(end.ms.TotalAlloc-start.ms.TotalAlloc)/cycles/1024)
	res.set(endToEnd, "allocs_per_cycle", float64(end.ms.Mallocs-start.ms.Mallocs)/cycles)
	// The live heap of the running stack: server, matrices, the last
	// cycles in flight, client caches. The harness's own buffers are
	// outside the heap (see seriesStore).
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set(endToEnd, "heap_live_mb", float64(ms.HeapAlloc)/(1<<20))
	res.set(endToEnd, "setup_s", setupS)
	return end, ok
}

// liveInfo carries what the replay needs from the live traced pass to
// turn stage medians into shares of the cycle.
type liveInfo struct {
	cycleMs        float64 // untraced median cycle
	stepUs         float64
	uplinkRTTUs    float64 // live uplink.submit median (TCP-uplink workloads)
	uplinkP50      float64 // the program's own netcast_uplink_ns p50
	missesPerCycle float64 // reads that went to the air (and, with a store, to qcache.Put)
}

// tracedBlocks is how many alternating untraced/traced blocks the traced
// pass is cut into. Alternating keeps host drift out of the overhead
// figure: both kinds of block see the same minutes.
const tracedBlocks = 8

// liveShare is the part of a traced run's length spent on the live
// pass; the replay gets the rest.
const liveShare = 0.6

// measureTraced alternates untraced and traced blocks on one live
// stack, writes the trace file, and reports the live-path per-layer
// metrics.
func measureTraced(d *driver, o runOpts, res *runResult, start *marks) (liveInfo, *marks, bool) {
	var live liveInfo
	recs := [2]*recorder{newRecorder(0), newRecorder(1)}
	tr := newTracer()
	block := max(int(float64(d.sp.cycles(o.seconds))*liveShare/tracedBlocks), 1)
	ok := true
	for b := 0; b < tracedBlocks && ok; b++ {
		if b%2 == 0 {
			ok = d.runFor(block, recs[0], nil)
		} else {
			ok = d.runFor(block, recs[1], tr)
			d.closeOpenSpans(tr)
		}
	}
	end := d.mark()
	cycles := float64(end.cycles - start.cycles)
	if cycles == 0 {
		return live, end, false
	}
	stats, selfNs := tr.summarize()
	if err := tr.writeFile(filepath.Join(o.outDir, "trace-"+d.sp.name+".json"), d.sp.name, stats, selfNs); err != nil {
		d.fail("trace file: %v", err)
	}

	untraced := recs[0].s[serCycle].quantile(0.5)
	traced := recs[1].s[serCycle].quantile(0.5)
	live.cycleMs = untraced / 1e6
	live.stepUs = stats[spStep].MedianUs
	res.set(perLayer, "netcast.step_us", live.stepUs)
	res.set(perLayer, "netcast.deliver_us", stats[spDeliver].MedianUs)
	res.set(perLayer, "client.await_cycle_us", stats[spAwait].MedianUs)
	res.set(perLayer, "client.read_us", stats[spRead].MedianUs)
	// A transaction spread over two cycles has a span two cycles long;
	// the metric is the time spent in its reads and commit, as end to end.
	res.set(perLayer, "client.read_txn_us", recs[1].s[serReadTxn].quantile(0.5)/1e3)
	res.set(perLayer, "harness.cycle_p99_ms", recs[0].s[serCycle].quantile(0.99)/1e6)
	res.set(perLayer, "harness.trace_overhead_pct", (traced-untraced)/untraced*100)

	restarts := float64(end.restarts - start.restarts)
	res.set(perLayer, "restart_ratio", restarts/math.Max(float64(end.readTxns-start.readTxns), 1))
	res.set(perLayer, "uplink.accepted", float64(end.accepted-start.accepted))
	res.set(perLayer, "uplink.rejected", float64(end.rejected-start.rejected))
	res.set(perLayer, "server.cols_rewritten_per_cycle", float64(end.colsRewritten-start.colsRewritten)/cycles)
	res.set(perLayer, "server.conflict_aborts", float64(end.conflictAborts-start.conflictAborts))
	res.set(perLayer, "netcast.tx_bytes_per_cycle", float64(end.txBytes-start.txBytes)/cycles)
	res.set(perLayer, "netcast.overflow_reaps", float64(d.ns.Obs().Counter("netcast_overflow_reaps").Load()))
	reads := float64(end.reads - start.reads)
	hits := float64(end.cacheHits - start.cacheHits)
	res.set(perLayer, "client.cache_hit_ratio", hits/math.Max(reads, 1))
	res.set(perLayer, "client.restarts", restarts)
	res.set(perLayer, "client.read_aborts", float64(end.readAborts-start.readAborts))
	live.missesPerCycle = (reads - hits) / cycles

	if d.sp.tcpUplink {
		live.uplinkRTTUs = stats[spSubmit].MedianUs
		live.uplinkP50 = histogramP50(d.ns)
	}

	elapsed := float64(end.t-start.t) / 1e9
	gcs := end.ms.NumGC - start.ms.NumGC
	res.set(perLayer, "runtime.gc_cycles_per_s", float64(gcs)/elapsed)
	res.set(perLayer, "runtime.gc_pause_p99_us", gcPauseP99(&end.ms, gcs)/1e3)
	return live, end, ok
}

// gcPauseP99 reads the 99th-percentile pause (ns) of the last n
// collections out of MemStats' ring of recent pauses.
func gcPauseP99(ms *runtime.MemStats, n uint32) float64 {
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	pauses := make([]float64, 0, n)
	for i := uint32(0); i < n; i++ {
		pauses = append(pauses, float64(ms.PauseNs[(ms.NumGC-i+255)%256]))
	}
	return quantileOf(pauses, 0.99)
}

// auditPass runs the workload once more, untimed, against a server that
// keeps its commit log, and ends in VerifyControl: the incrementally
// maintained control information must equal the definition-based
// rebuild (Theorem 2).
func auditPass(sp *spec, seed int64, dir string) (attempted, failed int64, notes []string) {
	d, err := setUp(sp, seed, true, dir)
	if err != nil {
		return 1, 1, []string{"audit set-up: " + err.Error()}
	}
	defer d.close()
	for i := 0; i < sp.auditCycles; i++ {
		if !d.runCycle(nil, nil) {
			break
		}
	}
	d.finalChecks()
	d.attempted++
	if err := d.srv.VerifyControl(); err != nil {
		d.fail("audit pass: %v", err)
	}
	return d.attempted, d.failed, d.failNotes
}
