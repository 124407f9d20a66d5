# Build/verify entry points. `make verify` is the tier-1 gate plus the
# race pass; CI and the pre-commit flow should run it.

GO ?= go

.PHONY: build test fmt hooks-check race flake loc verify examples bench bench-e2e bench-figures bench-smoke figures-check conform fuzz-smoke obs-smoke udp-smoke shard-smoke quasi-smoke soak-smoke soak-nightly

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt -l prints the files it would rewrite; any name is a failure.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l . >&2; exit 1; }

# Build every program under examples/ and run it to completion; the
# first non-zero exit fails the target. The binaries live in a temporary
# directory the EXIT trap removes.
examples:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	for d in examples/*/; do \
		name=$$(basename $$d); echo "== $$name"; \
		$(GO) build -o $$tmp/$$name ./$$d && $$tmp/$$name || \
			{ echo "examples: $$name failed" >&2; exit 1; }; \
	done

# An induced defect is a conformance.Defect the harness injects into one
# run, never a process-global switch: no non-test file under internal/
# may declare a `func Set…(on bool) (restore func())` toggle.
hooks-check:
	@! grep -rnE --include='*.go' --exclude='*_test.go' \
		'func Set[A-Za-z0-9_]*\([a-z]+ bool\) \(restore func\(\)\)' internal/ || \
		{ echo 'hooks-check: process-global fault hooks above; make them a conformance.Defect' >&2; exit 1; }

# The worker-pool sweep harness and the copy-on-write column sharing in
# cmatrix are concurrency/aliasing surface: run those packages (plus the
# TCP broadcast runtime, the fault layer's listener goroutines, the
# client recovery path, the triple-server conformance harness, the wire
# codecs the broadcast loop encodes concurrently, the datagram
# carrier/reassembler goroutines, and the server/protocol state it
# exercises) under the race detector.
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/sim/... ./internal/experiments/... ./internal/netcast/... ./internal/faultair/... ./internal/client/... ./internal/conformance/... ./internal/protocol/... ./internal/server/... ./internal/airsched/... ./internal/obs/... ./internal/cmatrix/... ./internal/wire/... ./internal/dgram/... ./internal/bctest/... ./internal/shard/... ./internal/qcache/... ./cmd/bcsoak/...

# Timing-dependent assertions show up as rare failures, not as a red
# tier-1 run: repeat every socket-bearing package so CI finds them
# before a reviewer does. The nightly job runs this.
flake:
	$(GO) test -count=20 ./internal/faultair ./internal/netcast ./internal/dgram ./internal/shard ./internal/client ./cmd/bcsoak

# Non-test Go lines per internal/* package, under cmd/ and at the root:
# the figure every "collapse duplicate machinery" PR quotes before and
# after. The last line is the subtotal over the scope of ROADMAP's
# "≥ 15 % fewer than at 2d16ba8" target (12,036 there).
LOC_SCOPE = internal/sim internal/client internal/netcast internal/wire internal/experiments cmd
loc:
	@for d in internal/* cmd; do \
		printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done; \
	printf '%-24s %6d\n' . $$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	printf '%-24s %6d\n' 'roadmap scope' $$(find $(LOC_SCOPE) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

verify: build fmt hooks-check test race

# Differential soak of the acceptance lattice; violations shrink into
# internal/conformance/corpus and fail the target.
conform:
	$(GO) run ./cmd/bcconform -soak 10000

# Short native-fuzzing pass over every fuzz target in the module (parser,
# wire codecs, acceptance lattice, trace codec, datagram codec and
# filter): 30 s each. The targets are whatever `go test -list` finds, so
# a new one cannot be left out; CI runs this on each push.
fuzz-smoke:
	@for pkg in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime 30s || exit 1; \
		done; \
	done

# Micro-benchmarks only (matrix apply/snapshot, wire codec, validator,
# the APPROX and exact update-consistency checkers, StartCycle, the
# broadcast-program lookup Timeline.NextReady; the grouped control's
# commit and publish, singleton groups included; one cycle of cache traffic through the persistent store, one
# cache record through its codec, one cached read transaction and one
# whole cached client cycle; one uplink round trip over loopback TCP;
# one server Step, frame built in place, at the Table 1 and dense
# grouped shapes; one tuner cycle viewed in a recycled frame at the
# Table 1, fanout-small vector and dense grouped shapes).
bench:
	$(GO) test -run '^$$' -bench 'Matrix|Snapshot|Validator|Wire|StartCycle|Approx|UpdateConsistentExact|ScheduleNextReady' -benchtime 100x
	$(GO) test -run '^$$' -bench 'Apply|Snapshot' -benchtime 100x ./internal/cmatrix
	$(GO) test -run '^$$' -bench 'CacheCycle' -benchtime 100x ./internal/qcache
	$(GO) test -run '^$$' -bench 'CacheRecord' -benchtime 100x ./internal/wire
	$(GO) test -run '^$$' -bench 'ReadTxn|CachedCycle' -benchtime 100x ./internal/client
	$(GO) test -run '^$$' -bench 'UplinkRoundTrip|Step|TunerDecode' -benchtime 100x ./internal/netcast

# The wall-clock benchmark (BENCHMARK.json, ~8 min) followed by its
# regression table against the committed baseline. A report, not a
# gate: the comparison's exit status is ignored.
bench-e2e:
	$(GO) run ./bench/e2e -out bench/e2e/out
	-$(GO) run ./bench/e2e -compare bench/e2e/baseline/BENCH_e2e.json bench/e2e/out/BENCH_e2e.json

# One pass over every figure sweep at reduced scale.
bench-figures:
	$(GO) test -run '^$$' -bench 'Figure|Sweep' -benchtime 1x

# One end-to-end pass of every experiment-harness benchmark (airsched
# sweeps included); CI runs this on each push to catch harness breakage.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/experiments/...

# Byte-identity of the figures (~20 s): run `bcbench -figure all -txns 50
# -quiet -json` and `-figure scale -scale-clients 2000,4000`, and compare
# stdout and every BENCH_<id>.json with cmd/bcbench/testdata
# (all-txns50.stdout, figures.sha256) and bench/BENCH_shard.json. The
# manifest is pinned to linux/amd64; elsewhere the check skips.
figures-check:
	$(GO) test -count=1 -run '^TestFiguresCheck$$' ./cmd/bcbench -args -figures-check

# Boot bcserver with the observability endpoint and assert /metrics
# serves a non-empty registry snapshot; catches -obs-addr wiring rot.
# Like every smoke below, it waits for each process it kills, and its
# EXIT trap kills and reaps whatever an early exit leaves running and
# removes the binaries (and files) the smoke made, on every exit path.
obs-smoke:
	pid=; trap 'kill $$pid 2>/dev/null; wait; rm -f /tmp/bcserver-obs-smoke' EXIT; trap 'exit 1' INT TERM; \
	$(GO) build -o /tmp/bcserver-obs-smoke ./cmd/bcserver || exit 1; \
	/tmp/bcserver-obs-smoke -broadcast 127.0.0.1:0 -uplink 127.0.0.1:0 \
		-obs-addr 127.0.0.1:17173 -workload 50 -interval 20ms -verify-sample 5 & \
	pid=$$!; sleep 1; \
	body=$$(curl -sf http://127.0.0.1:17173/metrics); status=$$?; \
	kill $$pid 2>/dev/null; wait $$pid; pid=; \
	if [ $$status -ne 0 ] || [ -z "$$body" ]; then \
		echo "obs-smoke: /metrics unreachable or empty" >&2; exit 1; \
	fi; \
	echo "$$body" | grep -q '"server_cycles"' || { echo "obs-smoke: no server_cycles in /metrics" >&2; exit 1; }; \
	echo "obs-smoke: ok"

# Boot bcserver with the connectionless datapath, tune one datagram
# client against it, and assert the client actually received packets
# (its /metrics shows dgram_packets_rx > 0); catches -udp wiring rot on
# both binaries end to end over a real UDP socket. A second, lossy
# client (-loss/-doze over the datagram tuner) must then finish all its
# transactions while its /metrics shows faultair_frames_dropped > 0 (the
# injected loss happened) and client_cycles_missed > 0: the doze path
# recovers on the next cycle it hears.
udp-smoke:
	spid=; cpid=; lpid=; trap 'kill $$spid $$cpid $$lpid 2>/dev/null; wait; rm -f /tmp/bcserver-udp-smoke /tmp/bcclient-udp-smoke' EXIT; trap 'exit 1' INT TERM; \
	$(GO) build -o /tmp/bcserver-udp-smoke ./cmd/bcserver || exit 1; \
	$(GO) build -o /tmp/bcclient-udp-smoke ./cmd/bcclient || exit 1; \
	/tmp/bcserver-udp-smoke -broadcast 127.0.0.1:0 -uplink 127.0.0.1:0 \
		-udp 127.0.0.1:17272 -workload 50 -interval 20ms & \
	spid=$$!; sleep 1; \
	/tmp/bcclient-udp-smoke -udp 127.0.0.1:17272 -read 0,1 -txns 500 \
		-obs-addr 127.0.0.1:17273 >/dev/null & \
	cpid=$$!; rx=; \
	for i in $$(seq 1 30); do \
		sleep 0.3; \
		rx=$$(curl -sf http://127.0.0.1:17273/metrics | \
			sed -n 's/.*"dgram_packets_rx": \([0-9]*\).*/\1/p'); \
		if [ -n "$$rx" ] && [ "$$rx" -gt 0 ]; then break; fi; \
	done; \
	kill $$cpid 2>/dev/null; wait $$cpid 2>/dev/null; cpid=; \
	/tmp/bcclient-udp-smoke -udp 127.0.0.1:17272 -read 0,1 -txns 100 \
		-loss 0.2 -doze 0.1 -fault-seed 7 -obs-addr 127.0.0.1:17274 >/dev/null & \
	lpid=$$!; missed=; dropped=; \
	for i in $$(seq 1 50); do \
		sleep 0.2; \
		body=$$(curl -sf http://127.0.0.1:17274/metrics); \
		m=$$(echo "$$body" | sed -n 's/.*"client_cycles_missed": \([0-9]*\).*/\1/p'); \
		if [ -n "$$m" ]; then missed=$$m; fi; \
		d=$$(echo "$$body" | sed -n 's/.*"faultair_frames_dropped": \([0-9]*\).*/\1/p'); \
		if [ -n "$$d" ]; then dropped=$$d; fi; \
		kill -0 $$lpid 2>/dev/null || break; \
	done; \
	if kill $$lpid 2>/dev/null; then wait $$lpid; lrc=timeout; else wait $$lpid; lrc=$$?; fi; lpid=; \
	kill $$spid 2>/dev/null; wait $$spid; spid=; \
	if [ -z "$$rx" ] || [ "$$rx" -eq 0 ]; then \
		echo "udp-smoke: client never saw a datagram (dgram_packets_rx $${rx:-missing})" >&2; \
		exit 1; \
	fi; \
	if [ "$$lrc" != 0 ]; then \
		echo "udp-smoke: lossy client did not finish its transactions (exit $$lrc)" >&2; \
		exit 1; \
	fi; \
	if [ -z "$$dropped" ] || [ "$$dropped" -eq 0 ]; then \
		echo "udp-smoke: lossy client dropped no frame (faultair_frames_dropped $${dropped:-missing})" >&2; \
		exit 1; \
	fi; \
	if [ -z "$$missed" ] || [ "$$missed" -eq 0 ]; then \
		echo "udp-smoke: lossy client missed no cycle (client_cycles_missed $${missed:-missing})" >&2; \
		exit 1; \
	fi; \
	echo "udp-smoke: ok ($$rx packets received; lossy client finished, $$dropped frames dropped, $$missed cycles missed)"

# Boot a 2-shard bcserver fleet, commit a cross-shard write through the
# coordinator uplink with bcclient -shards, and read it back off both
# broadcast channels; catches -shards wiring rot on both binaries over
# real sockets. Under ring seed 7 objects 0 and 1 sit on shards 0 and
# 1, so the write is a cross-shard commit: the fleet's /metrics must
# then show shard_cross_total >= 1, shard_commits_total >= 1 and
# shard_aborts_total = 0.
shard-smoke:
	spid=; trap 'kill $$spid 2>/dev/null; wait; rm -f /tmp/bcserver-shard-smoke /tmp/bcclient-shard-smoke' EXIT; trap 'exit 1' INT TERM; \
	$(GO) build -o /tmp/bcserver-shard-smoke ./cmd/bcserver || exit 1; \
	$(GO) build -o /tmp/bcclient-shard-smoke ./cmd/bcclient || exit 1; \
	/tmp/bcserver-shard-smoke -shards 2 -objects 256 -ring-seed 7 \
		-broadcast 127.0.0.1:17370 -uplink 127.0.0.1:17380 \
		-coordinator 127.0.0.1:17369 -interval 20ms \
		-obs-addr 127.0.0.1:17379 & \
	spid=$$!; sleep 1; \
	/tmp/bcclient-shard-smoke -shards 2 -objects 256 -ring-seed 7 \
		-broadcast 127.0.0.1:17370 -coordinator 127.0.0.1:17369 \
		-write 0=alpha,1=beta,2=gamma,3=delta; wstatus=$$?; \
	out=$$(/tmp/bcclient-shard-smoke -shards 2 -objects 256 -ring-seed 7 \
		-broadcast 127.0.0.1:17370 -read 0,1,2,3); rstatus=$$?; \
	body=$$(curl -sf http://127.0.0.1:17379/metrics); \
	kill $$spid 2>/dev/null; wait $$spid; spid=; \
	if [ $$wstatus -ne 0 ] || [ $$rstatus -ne 0 ]; then \
		echo "shard-smoke: client exited non-zero (write $$wstatus, read $$rstatus)" >&2; exit 1; \
	fi; \
	echo "$$out" | grep -q 'obj0="alpha"' || { echo "shard-smoke: committed write did not read back: $$out" >&2; exit 1; }; \
	echo "$$out" | grep -q '@shard1' || { echo "shard-smoke: reads never touched shard 1: $$out" >&2; exit 1; }; \
	cross=$$(echo "$$body" | sed -n 's/.*"shard_cross_total": \([0-9]*\).*/\1/p'); \
	commits=$$(echo "$$body" | sed -n 's/.*"shard_commits_total": \([0-9]*\).*/\1/p'); \
	aborts=$$(echo "$$body" | sed -n 's/.*"shard_aborts_total": \([0-9]*\).*/\1/p'); \
	if [ -z "$$cross" ] || [ "$$cross" -lt 1 ] || [ -z "$$commits" ] || [ "$$commits" -lt 1 ] || [ "$$aborts" != 0 ]; then \
		echo "shard-smoke: want shard_cross_total >= 1, shard_commits_total >= 1, shard_aborts_total = 0; got $${cross:-missing}, $${commits:-missing}, $${aborts:-missing}" >&2; \
		exit 1; \
	fi; \
	echo "shard-smoke: ok ($$cross cross-shard, $$commits commits, $$aborts aborts)"

# The persistent quasi-cache crash/restart smoke: boot bcserver, run
# bcclient with a disk-backed cache, kill -9 it mid-run, restart it on
# the same cache directory, and assert via /metrics that the recovered
# inventory was revalidated off the air (client_cache_revalidated > 0).
# The currency bound is sized so the wall-clock restart gap stays
# within it.
quasi-smoke:
	spid=; cpid=; rpid=; trap 'kill $$spid $$cpid $$rpid 2>/dev/null; wait; rm -f /tmp/bcserver-quasi-smoke /tmp/bcclient-quasi-smoke; rm -rf /tmp/quasi-smoke-cache' EXIT; trap 'exit 1' INT TERM; \
	$(GO) build -o /tmp/bcserver-quasi-smoke ./cmd/bcserver || exit 1; \
	$(GO) build -o /tmp/bcclient-quasi-smoke ./cmd/bcclient || exit 1; \
	rm -rf /tmp/quasi-smoke-cache; \
	/tmp/bcserver-quasi-smoke -broadcast 127.0.0.1:17470 -uplink 127.0.0.1:17471 \
		-objects 64 -workload 20 -interval 20ms & \
	spid=$$!; sleep 1; \
	/tmp/bcclient-quasi-smoke -broadcast 127.0.0.1:17470 -read 0,1,2 -txns 1000000 \
		-cache-currency 2000 -cache-dir /tmp/quasi-smoke-cache \
		>/dev/null 2>&1 & \
	cpid=$$!; sleep 2; \
	kill -9 $$cpid 2>/dev/null; wait $$cpid 2>/dev/null; cpid=; \
	/tmp/bcclient-quasi-smoke -broadcast 127.0.0.1:17470 -read 0,1,2 -txns 1000000 \
		-cache-currency 2000 -cache-dir /tmp/quasi-smoke-cache \
		-obs-addr 127.0.0.1:17473 >/dev/null 2>&1 & \
	rpid=$$!; reval=; \
	for i in $$(seq 1 30); do \
		sleep 0.3; \
		reval=$$(curl -sf http://127.0.0.1:17473/metrics | \
			sed -n 's/.*"client_cache_revalidated": \([0-9]*\).*/\1/p'); \
		if [ -n "$$reval" ] && [ "$$reval" -gt 0 ]; then break; fi; \
	done; \
	kill -9 $$rpid 2>/dev/null; wait $$rpid 2>/dev/null; rpid=; \
	kill $$spid 2>/dev/null; wait $$spid; spid=; \
	if [ -z "$$reval" ] || [ "$$reval" -eq 0 ]; then \
		echo "quasi-smoke: restarted client revalidated nothing (client_cache_revalidated $${reval:-missing})" >&2; \
		exit 1; \
	fi; \
	echo "quasi-smoke: ok ($$reval entries revalidated after kill -9)"

# 30 seconds of bcsoak: a real netcast server under concurrent TCP
# tuners, UDP datagram readers, uplink writers and subscription churn,
# with the obs-derived invariants (subscriber balance, uplink latency
# p99, restart-ratio model, datagram loss budget) checked on every
# /metrics scrape. Non-zero exit on the first violation.
soak-smoke:
	$(GO) run ./cmd/bcsoak -duration 30s -scrape 3s

# The nightly long soak: 30 minutes, a larger tuner population, the
# cached profile (every TCP tuner carries a weak-currency cache), and a
# JSONL metrics timeline for upload as a CI artifact.
soak-nightly:
	$(GO) run ./cmd/bcsoak -duration 30m -tuners 120 -udp-clients 16 \
		-writers 8 -scrape 15s -cache-currency 8 -cache-size 128 \
		-timeline soak-timeline.jsonl
