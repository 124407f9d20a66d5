package main

import "broadcastcc/internal/protocol"

// spec is one workload: a server configuration, an audience, and the
// per-cycle operation mix the lock-step driver issues. Everything the
// program under test sees is generated from these numbers and a seed.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string

	alg      protocol.Algorithm
	objects  int
	objBytes int
	groups   int

	tuners    int  // TCP tuners, each with its own client
	tcpUplink bool // updates travel the TCP uplink (else server.SubmitUpdate in-process)

	updates   int // update transactions per cycle
	updReads  int
	updWrites int
	// disjoint draws every update's objects without replacement from one
	// per-cycle permutation, so updates of a cycle never conflict by
	// accident; conflictEvery > 0 then makes every conflictEvery-th
	// update re-read an object written earlier in the same cycle, which
	// the server must reject.
	disjoint      bool
	conflictEvery int

	readTxns int // read-only transactions in flight per tuner
	txnReads int // reads per transaction
	txnSpan  int // cycles a transaction's reads are spread over

	cacheCurrency int
	cacheSize     int
	store         bool // client cache writes through to a qcache.Store
	compactEvery  int  // Store.Compact() every this many cycles (0 = never)

	// warmup is the number of lock-step cycles run (and discarded) as the
	// last part of set-up; auditCycles is the length of the untimed Audit
	// pass that ends in VerifyControl.
	warmup      int
	auditCycles int
	// perSecond is the number of cycles measured per second of -seconds:
	// the rate the baseline host sustained, harness bookkeeping included,
	// frozen so that a run is a fixed amount of work and every count of it
	// repeats exactly for a seed. A faster program finishes sooner.
	perSecond int
}

var specs = []*spec{
	{
		name: "air-table1",
		why:  "paper Table 1 database (F-Matrix n=300, 1 KiB objects, 397 KB frames): StartCycle, wire encode/decode and the socket copy dominate",
		alg:  protocol.FMatrix, objects: 300, objBytes: 1024,
		tuners: 1, tcpUplink: true,
		updates: 8, updReads: 4, updWrites: 4,
		readTxns: 1, txnReads: 4, txnSpan: 2,
		warmup: 8, auditCycles: 100, perSecond: 85,
	},
	{
		name: "fanout-small",
		why:  "R-Matrix n=32, 2 KB frames to 2 tuners: per-frame fixed cost (syscalls, deadlines, wake-ups) dominates and the codecs do almost nothing",
		alg:  protocol.RMatrix, objects: 32, objBytes: 64,
		tuners:  2,
		updates: 1, updReads: 1, updWrites: 1,
		readTxns: 1, txnReads: 2, txnSpan: 1,
		warmup: 2000, auditCycles: 200, perSecond: 20000,
	},
	{
		name: "uplink-grouped",
		why:  "grouped control n=512 g=16, 64 uplink commits per cycle with exactly 1 in 8 rejected: grouped MC maintenance in the commit path dominates",
		alg:  protocol.Grouped, objects: 512, objBytes: 64, groups: 16,
		tuners: 1, tcpUplink: true,
		updates: 64, updReads: 2, updWrites: 2, disjoint: true, conflictEvery: 8,
		readTxns: 1, txnReads: 4, txnSpan: 1,
		// Grouped commit cost climbs to about twice its steady level
		// while the class-shared matrix fills and settles after ~60
		// cycles: the warm-up has to outlast that.
		warmup: 80, auditCycles: 20, perSecond: 75,
	},
	{
		name: "read-cached",
		why:  "F-Matrix n=64, 16x16 reads per cycle through a currency-8 cache with a write-through qcache store: client read path, cache and log dominate",
		alg:  protocol.FMatrix, objects: 64, objBytes: 64,
		tuners:  1,
		updates: 1, updReads: 0, updWrites: 2,
		readTxns: 16, txnReads: 16, txnSpan: 1,
		cacheCurrency: 8, cacheSize: 48, store: true, compactEvery: 1024,
		warmup: 100, auditCycles: 200, perSecond: 900,
	},
}

// cycles is the measured length of a run of the given -seconds.
func (sp *spec) cycles(seconds float64) int {
	return max(int(float64(sp.perSecond)*seconds), 1)
}

// quickly returns the workload at smoke-test scale: a tenth of the
// warm-up and of the Audit pass and a hundredth of the measured cycles,
// enough to exercise every path and every check but not to measure
// anything.
func (sp *spec) quickly() *spec {
	q := *sp
	q.warmup = max(sp.warmup/10, 2)
	q.auditCycles = max(sp.auditCycles/10, 4)
	q.perSecond = max(sp.perSecond/100, 2)
	return &q
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// metricDef describes one reported metric. bound is the share of the
// baseline median by which an end-to-end metric may worsen before
// -compare calls it a regression (per-layer metrics carry none).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the metrics a user of the system would see; every
// workload reports all of them. BENCHMARK.json mirrors this table (the
// smoke test checks the two agree). The bounds come from the A/A spread
// table in README.md: the time metrics moved by up to 16 % between runs
// of unchanged code on the reference class of host, so they sit at the
// contract's ceiling; the counts repeat to a part in a thousand.
var endToEnd = []metricDef{
	{"cycle_ms", "ms", "lower", 0.25},
	{"air_period_ms", "ms", "lower", 0.25},
	{"commit_us", "us", "lower", 0.25},
	{"read_txn_us", "us", "lower", 0.25},
	{"cpu_ms_per_cycle", "ms", "lower", 0.25},
	{"air_bytes_per_cycle", "B", "lower", 0.001},
	{"alloc_kb_per_cycle", "KiB", "lower", 0.02},
	{"allocs_per_cycle", "count", "lower", 0.02},
	{"heap_live_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced pass and its
// stage-by-stage replay, in the order the ledger prints them.
var perLayer = []metricDef{
	// harness spans on the live path
	{"netcast.step_us", "us", "lower", 0},
	{"netcast.uplink_rtt_us", "us", "lower", 0},
	{"netcast.deliver_us", "us", "lower", 0},
	{"client.await_cycle_us", "us", "lower", 0},
	{"client.read_us", "us", "lower", 0},
	{"client.read_txn_us", "us", "lower", 0},
	{"harness.cycle_p99_ms", "ms", "lower", 0},
	{"harness.trace_overhead_pct", "%", "lower", 0},
	{"harness.ledger_coverage", "ratio", "higher", 0},
	{"host.yardstick_ms", "ms", "lower", 0},
	// exact-per-seed counts of the live pass
	{"restart_ratio", "ratio", "lower", 0},
	{"uplink.accepted", "count", "higher", 0},
	{"uplink.rejected", "count", "lower", 0},
	// server
	{"server.start_cycle_us", "us", "lower", 0},
	{"server.start_cycle_B", "B", "lower", 0},
	{"server.start_cycle_allocs", "count", "lower", 0},
	{"server.submit_update_us", "us", "lower", 0},
	{"server.submit_update_B", "B", "lower", 0},
	{"server.submit_update_allocs", "count", "lower", 0},
	{"server.reject_us", "us", "lower", 0},
	{"server.cols_rewritten_per_cycle", "count", "lower", 0},
	{"server.conflict_aborts", "count", "lower", 0},
	// cmatrix, for the workload's control kind
	{"cmatrix.apply_us", "us", "lower", 0},
	{"cmatrix.apply_B", "B", "lower", 0},
	{"cmatrix.apply_allocs", "count", "lower", 0},
	{"cmatrix.snapshot_us", "us", "lower", 0},
	{"cmatrix.snapshot_B", "B", "lower", 0},
	{"cmatrix.snapshot_allocs", "count", "lower", 0},
	// wire
	{"wire.encode_cycle_us", "us", "lower", 0},
	{"wire.encode_cycle_B", "B", "lower", 0},
	{"wire.encode_cycle_allocs", "count", "lower", 0},
	{"wire.encode_cycle_MBps", "MB/s", "higher", 0},
	{"wire.decode_cycle_us", "us", "lower", 0},
	{"wire.decode_cycle_B", "B", "lower", 0},
	{"wire.decode_cycle_allocs", "count", "lower", 0},
	{"wire.encode_update_us", "us", "lower", 0},
	{"wire.decode_update_us", "us", "lower", 0},
	{"wire.encode_delta_us", "us", "lower", 0},
	{"wire.decode_delta_us", "us", "lower", 0},
	{"wire.encode_cache_record_us", "us", "lower", 0},
	// netcast
	{"netcast.write_frame_us", "us", "lower", 0},
	{"netcast.read_frame_us", "us", "lower", 0},
	{"netcast.read_frame_B", "B", "lower", 0},
	{"netcast.read_frame_allocs", "count", "lower", 0},
	{"netcast.frame_transfer_us", "us", "lower", 0},
	{"netcast.frame_decode_us", "us", "lower", 0},
	{"netcast.fanout_self_us", "us", "lower", 0},
	{"netcast.fanout_us_per_sub", "us", "lower", 0},
	{"netcast.uplink_overhead_us", "us", "lower", 0},
	{"netcast.tx_bytes_per_cycle", "B", "lower", 0},
	{"netcast.overflow_reaps", "count", "lower", 0},
	{"netcast.uplink_ns_p50", "ns", "lower", 0},
	// bcast
	{"bcast.publish_us", "us", "lower", 0},
	// protocol / client
	{"protocol.try_read_ns", "ns", "lower", 0},
	{"protocol.try_read_allocs", "count", "lower", 0},
	{"client.cache_hit_ratio", "ratio", "higher", 0},
	{"client.restarts", "count", "lower", 0},
	{"client.read_aborts", "count", "lower", 0},
	// qcache
	{"qcache.put_us", "us", "lower", 0},
	{"qcache.put_B", "B", "lower", 0},
	{"qcache.put_allocs", "count", "lower", 0},
	{"qcache.get_us", "us", "lower", 0},
	{"qcache.compact_ms", "ms", "lower", 0},
	{"qcache.open_ms", "ms", "lower", 0},
	{"qcache.log_bytes_per_live_byte", "ratio", "lower", 0},
	// ledger-only layers: no end-to-end workload exercises them yet
	{"dgram.send_cycle_us", "us", "lower", 0},
	{"dgram.send_cycle_allocs", "count", "lower", 0},
	{"dgram.packets_per_cycle", "count", "lower", 0},
	{"dgram.reassemble_us", "us", "lower", 0},
	{"sim.table1_run_ms", "ms", "lower", 0},
	{"sim.wheel_events_per_s", "1/s", "higher", 0},
	// runtime
	{"runtime.gc_cycles_per_s", "1/s", "lower", 0},
	{"runtime.gc_pause_p99_us", "us", "lower", 0},
}
