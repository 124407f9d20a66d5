package sim

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"broadcastcc/internal/bctest"
	"broadcastcc/internal/core"
	"broadcastcc/internal/protocol"
)

// smallConfig is a fast configuration with enough contention for
// protocol differences to show.
func smallConfig(alg protocol.Algorithm) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = alg
	cfg.Objects = 40
	cfg.ObjectBits = 1024
	cfg.ClientTxns = 120
	cfg.MeasureFrom = 20
	cfg.ClientTxnLength = 5
	cfg.ServerTxnInterval = 40000
	cfg.MeanInterOpDelay = 8192
	cfg.MeanInterTxnDelay = 16384
	cfg.Seed = 7
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"objects", func(c *Config) { c.Objects = 0 }},
		{"objectbits", func(c *Config) { c.ObjectBits = 0 }},
		{"clientlen", func(c *Config) { c.ClientTxnLength = 0 }},
		{"clientlen>objects", func(c *Config) { c.ClientTxnLength = c.Objects + 1 }},
		{"serverlen", func(c *Config) { c.ServerTxnLength = -1 }},
		{"interval", func(c *Config) { c.ServerTxnInterval = 0 }},
		{"readprob", func(c *Config) { c.ServerReadProb = 1.5 }},
		{"delays", func(c *Config) { c.MeanInterOpDelay = -1 }},
		{"txns", func(c *Config) { c.ClientTxns = 0 }},
		{"measure", func(c *Config) { c.MeasureFrom = c.ClientTxns }},
		{"groups", func(c *Config) { c.Algorithm = protocol.Grouped; c.Groups = 0 }},
		{"cache", func(c *Config) { c.CacheCurrency = -1 }},
		{"ts", func(c *Config) { c.TimestampBits = 0 }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run should refuse an invalid config", m.name)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cfg := smallConfig(protocol.RMatrix)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ResponseTime.Mean() != r2.ResponseTime.Mean() ||
		r1.Restarts.Sum() != r2.Restarts.Sum() ||
		r1.ServerCommits != r2.ServerCommits {
		t.Error("same seed must reproduce the run exactly")
	}
	cfg.Seed = 8
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ResponseTime.Mean() == r3.ResponseTime.Mean() && r1.SimulatedTime == r3.SimulatedTime {
		t.Error("different seeds should differ")
	}
}

func TestNoUpdatesMeansNoAborts(t *testing.T) {
	for _, alg := range []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo} {
		cfg := smallConfig(alg)
		cfg.ServerTxnLength = 0 // server transactions do nothing
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Restarts.Sum() != 0 {
			t.Errorf("%v: %v restarts with no updates", alg, r.Restarts.Sum())
		}
		if r.ResponseTime.Mean() <= 0 {
			t.Errorf("%v: nonpositive response time", alg)
		}
	}
}

func TestMeasuredCountMatches(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ResponseTime.N(); got != cfg.ClientTxns-cfg.MeasureFrom {
		t.Errorf("measured %d txns, want %d", got, cfg.ClientTxns-cfg.MeasureFrom)
	}
	if r.ResponseCI.Mean != r.ResponseTime.Mean() {
		t.Error("CI mean should match sample mean")
	}
	if r.CyclesSimulated <= 0 || r.ServerCommits <= 0 || r.SimulatedTime <= 0 {
		t.Errorf("counters not populated: %+v", r)
	}
}

// The headline qualitative result: Datacycle restarts far more than
// R-Matrix, which restarts more than F-Matrix; response times order the
// same way. F-Matrix-No is at least as fast as F-Matrix.
func TestProtocolOrdering(t *testing.T) {
	results := map[protocol.Algorithm]*Result{}
	for _, alg := range []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo} {
		cfg := smallConfig(alg)
		// Contention high enough for the paper's ordering to separate
		// cleanly (cf. Figure 2 beyond client length 6).
		cfg.ClientTxnLength = 8
		cfg.ServerTxnInterval = 25000
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[alg] = r
	}
	d, rm, f, fno := results[protocol.Datacycle], results[protocol.RMatrix], results[protocol.FMatrix], results[protocol.FMatrixNo]
	if !(d.RestartRatio > rm.RestartRatio) {
		t.Errorf("restart ratio: Datacycle %v should exceed R-Matrix %v", d.RestartRatio, rm.RestartRatio)
	}
	if !(rm.RestartRatio > f.RestartRatio) {
		t.Errorf("restart ratio: R-Matrix %v should exceed F-Matrix %v", rm.RestartRatio, f.RestartRatio)
	}
	if !(d.ResponseTime.Mean() > rm.ResponseTime.Mean()) {
		t.Errorf("response: Datacycle %v should exceed R-Matrix %v", d.ResponseTime.Mean(), rm.ResponseTime.Mean())
	}
	if !(rm.ResponseTime.Mean() > f.ResponseTime.Mean()) {
		t.Errorf("response: R-Matrix %v should exceed F-Matrix %v", rm.ResponseTime.Mean(), f.ResponseTime.Mean())
	}
	if !(fno.ResponseTime.Mean() <= f.ResponseTime.Mean()) {
		t.Errorf("response: F-Matrix-No %v should not exceed F-Matrix %v", fno.ResponseTime.Mean(), f.ResponseTime.Mean())
	}
}

// Grouped with g=1 must behave like a conjunctive vector check; with
// g=n it must equal F-Matrix's acceptance behaviour (same seed, same
// layout? no — layout differs; compare restart ratio against
// F-Matrix's only qualitatively: fewer groups, more restarts).
func TestGroupedSpectrumMonotonicity(t *testing.T) {
	restarts := map[int]float64{}
	for _, g := range []int{1, 8, 40} {
		cfg := smallConfig(protocol.Grouped)
		cfg.Groups = g
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		restarts[g] = r.Restarts.Sum()
	}
	if !(restarts[1] >= restarts[8] && restarts[8] >= restarts[40]) {
		t.Errorf("coarser grouping should not restart less: %v", restarts)
	}
}

func TestCachingReducesResponseTime(t *testing.T) {
	// Caching pays off under weak currency requirements and low update
	// contention: hot objects are re-read from the cache instead of
	// waiting up to a full cycle for them to come around again.
	base := smallConfig(protocol.FMatrix)
	base.ClientTxnLength = 4
	base.Objects = 10
	base.ServerTxnInterval = 300000
	noCache, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.CacheCurrency = 10
	withCache, err := Run(cached)
	if err != nil {
		t.Fatal(err)
	}
	if withCache.CacheHits == 0 {
		t.Fatal("expected cache hits")
	}
	if !(withCache.ResponseTime.Mean() < noCache.ResponseTime.Mean()) {
		t.Errorf("caching should cut response time: %v vs %v",
			withCache.ResponseTime.Mean(), noCache.ResponseTime.Mean())
	}
}

func TestMaxTimeGuard(t *testing.T) {
	cfg := smallConfig(protocol.Datacycle)
	cfg.MaxTime = float64(cfg.ObjectBits) // absurdly small
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Fatalf("Run = %v, want MaxTime error", err)
	}
}

// TestMaxTimeParity pins where the one pop-time guard ends a run: the
// configurations the sequential single-client loop gave up on (its
// read, restart and fault-wait guards) still return ErrMaxTime, their
// neighbours still complete, and at every client count the guard is
// sharp — a run completes with MaxTime at its last transaction's
// completion instant and not a bit-unit's fraction below.
func TestMaxTimeParity(t *testing.T) {
	// Datacycle far off the paper's Y axis: figure 2a's longest
	// transactions under figure 3b's fastest server, the guard scaled
	// from the figures' 5e11 to keep the test short.
	offAxis := DefaultConfig()
	offAxis.Algorithm = protocol.Datacycle
	offAxis.ClientTxnLength = 10
	offAxis.ClientTxns, offAxis.MeasureFrom = 50, 25
	offAxis.ServerTxnInterval = 62500
	offAxis.MaxTime = 5e10
	onAxis := offAxis
	onAxis.ServerTxnInterval = 250000

	overrun := smallConfig(protocol.Datacycle)
	overrun.RestartDelay = 1e9
	overrun.MaxTime = 2e9
	noDelay := overrun
	noDelay.RestartDelay = 0

	airFaults := airschedConfig(1, 1, 0.95)
	airFaults.ClientTxns, airFaults.MeasureFrom = 40, 10
	airFaults.FaultDoze = 0.9
	airFaults.FaultDozeLen = 50
	airFaults.MaxTime = 1e9

	for _, tc := range []struct {
		name    string
		cfg     Config
		maxTime bool
	}{
		{"datacycle off-axis", offAxis, true},
		{"datacycle on-axis", onAxis, false},
		{"restart-delay overrun", overrun, true},
		{"no restart delay", noDelay, false},
		{"airsched waiting out faults", airFaults, true},
	} {
		for _, n := range []int{0, 1} {
			tc.cfg.Clients = n
			_, err := Run(tc.cfg)
			if tc.maxTime && !errors.Is(err, ErrMaxTime) {
				t.Errorf("%s, Clients=%d: Run = %v, want ErrMaxTime", tc.name, n, err)
			}
			if !tc.maxTime && err != nil {
				t.Errorf("%s, Clients=%d: %v", tc.name, n, err)
			}
		}
	}

	for _, n := range []int{1, 4} {
		cfg := smallConfig(protocol.FMatrix)
		cfg.Clients = n
		cfg.ClientTxns, cfg.MeasureFrom = 40, 10
		cfg.ClientUpdateProb = 0.3
		free, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxTime = free.SimulatedTime
		at, err := Run(cfg)
		if err != nil {
			t.Fatalf("Clients=%d, MaxTime at the last completion: %v", n, err)
		}
		if at.SimulatedTime != free.SimulatedTime || !reflect.DeepEqual(at.Trace, free.Trace) {
			t.Errorf("Clients=%d: MaxTime at the last completion changed the run", n)
		}
		cfg.MaxTime = math.Nextafter(free.SimulatedTime, 0)
		if _, err := Run(cfg); !errors.Is(err, ErrMaxTime) {
			t.Errorf("Clients=%d, MaxTime just under the last completion: Run = %v, want ErrMaxTime", n, err)
		}
	}
}

// SimulatedTime is when the last transaction completed, so it falls in
// the cycle the trace's last event is stamped with — at one client as
// at four (TestMaxTimeParity pins the instant itself) — and not an
// inter-transaction think time, here many cycles, later.
func TestSimulatedTimeIsLastCompletion(t *testing.T) {
	for _, n := range []int{1, 4} {
		cfg := smallConfig(protocol.RMatrix)
		cfg.Clients = n
		cfg.ClientTxns, cfg.MeasureFrom = 12, 2
		cfg.MeanInterTxnDelay = 5e6
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last := float64(res.Trace[len(res.Trace)-1].Cycle)
		if lo, hi := (last-1)*e.cycleBits, last*e.cycleBits; res.SimulatedTime <= lo || res.SimulatedTime > hi {
			t.Errorf("Clients=%d: SimulatedTime %v outside cycle %v (%v, %v], where the last transaction completed",
				n, res.SimulatedTime, last, lo, hi)
		}
	}
}

func TestServerIntervalExponential(t *testing.T) {
	cfg := smallConfig(protocol.RMatrix)
	cfg.ServerIntervalExponential = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ServerCommits == 0 {
		t.Error("exponential server interval should still commit")
	}
}

// Every simulated run must produce a history the protocol's criterion
// accepts: APPROX for the matrix protocols and R-Matrix, global
// serializability for Datacycle. This audits the whole simulator against
// the formal checkers.
func TestSimulatedRunsAreConsistent(t *testing.T) {
	for _, alg := range []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := smallConfig(alg)
			cfg.Objects = 10
			cfg.ClientTxns = 60
			cfg.MeasureFrom = 10
			cfg.ClientTxnLength = 3
			cfg.Audit = true
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.CommittedReadSets) != cfg.ClientTxns {
				t.Fatalf("audited %d read-sets, want %d", len(r.CommittedReadSets), cfg.ClientTxns)
			}
			h := bctest.InducedHistory(r.AuditLog, r.CommittedReadSets)
			if alg == protocol.Datacycle {
				if v := core.Serializable(h); !v.OK {
					t.Fatalf("Datacycle simulation produced non-serializable history: %s", v.Reason)
				}
			}
			if v := core.Approx(h); !v.OK {
				t.Fatalf("%v simulation violates APPROX: %s", alg, v.Reason)
			}
		})
	}
}

// Cached runs must also be consistent: out-of-order (cached) reads go
// through the bidirectional snapshot validator.
func TestCachedSimulatedRunsAreConsistent(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Objects = 10
	cfg.ClientTxns = 80
	cfg.MeasureFrom = 10
	cfg.ClientTxnLength = 3
	cfg.CacheCurrency = 6
	cfg.Audit = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHits == 0 {
		t.Fatal("expected cache hits")
	}
	h := bctest.InducedHistory(r.AuditLog, r.CommittedReadSets)
	if v := core.Approx(h); !v.OK {
		t.Fatalf("cached simulation violates APPROX: %s", v.Reason)
	}
}

func TestAuditDisabledByDefault(t *testing.T) {
	r, err := Run(smallConfig(protocol.FMatrix))
	if err != nil {
		t.Fatal(err)
	}
	if r.AuditLog != nil || r.CommittedReadSets != nil {
		t.Error("audit fields should be empty without Config.Audit")
	}
}

// A multi-disk program must cut response times for a Zipf-skewed
// client against the paper's flat disk (the multi-speed extension the
// paper leaves out of scope).
func TestMultiDiskHelpsHotSkew(t *testing.T) {
	base := smallConfig(protocol.RMatrix)
	base.Objects = 40
	base.ZipfTheta = 0.95
	base.Disks = 1
	flat, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.Disks = 3
	fast, err := Run(multi)
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.ResponseTime.Mean() < flat.ResponseTime.Mean()) {
		t.Errorf("3 disks should cut response time: %.0f vs flat %.0f",
			fast.ResponseTime.Mean(), flat.ResponseTime.Mean())
	}
}

// Client update transactions: commits and rejects both happen, the
// update metrics populate, and the audited history — which now contains
// client-originated update transactions — still satisfies APPROX with a
// serializable update sub-history.
func TestClientUpdateTransactions(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Objects = 12
	cfg.ClientTxnLength = 3
	cfg.ClientTxns = 150
	cfg.MeasureFrom = 20
	cfg.ClientUpdateProb = 0.4
	cfg.ClientTxnWrites = 1
	cfg.UplinkLatency = 2048
	cfg.Audit = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ClientCommits == 0 {
		t.Fatal("no client update commits")
	}
	if r.UpdateResponseTime.N() == 0 {
		t.Fatal("update response times not measured")
	}
	if r.ResponseTime.N()+r.UpdateResponseTime.N() != cfg.ClientTxns-cfg.MeasureFrom {
		t.Errorf("measured %d+%d txns, want %d", r.ResponseTime.N(), r.UpdateResponseTime.N(), cfg.ClientTxns-cfg.MeasureFrom)
	}
	h := bctest.InducedHistory(r.AuditLog, r.CommittedReadSets)
	if v := core.Approx(h); !v.OK {
		t.Fatalf("client-update run violates APPROX: %s", v.Reason)
	}
	if v := core.ConflictSerializable(h.UpdateSubhistory()); !v.OK {
		t.Fatalf("update sub-history with client updates not serializable: %s", v.Reason)
	}
}

// Under contention the uplink must reject some updates, and rejected
// transactions eventually commit through restarts.
func TestClientUpdateRejections(t *testing.T) {
	cfg := smallConfig(protocol.Datacycle)
	cfg.Objects = 10
	cfg.ClientTxnLength = 4
	cfg.ClientTxns = 200
	cfg.MeasureFrom = 20
	cfg.ClientUpdateProb = 0.5
	cfg.ServerTxnInterval = 15000 // hot server: frequent invalidations
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.UplinkRejects == 0 {
		t.Error("expected uplink rejections under contention")
	}
	if r.ClientCommits == 0 {
		t.Error("rejected transactions should still commit eventually")
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	want := Config{
		Algorithm:         protocol.FMatrix,
		ClientTxnLength:   4,
		ServerTxnLength:   8,
		ServerTxnInterval: 250000,
		Objects:           300,
		ObjectBits:        8192,
		ServerReadProb:    0.5,
		MeanInterOpDelay:  65536,
		MeanInterTxnDelay: 131072,
		TimestampBits:     8,
		ClientTxns:        1000,
		MeasureFrom:       500,
		Seed:              1,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("DefaultConfig = %+v, want Table 1 values %+v", cfg, want)
	}
}

// TestServerControlMatchesRebuild checks the control the simulated
// server maintains against the definition-based rebuild of its own
// commit log (server.VerifyControl), for every algorithm: an audited
// run with client updates, and the same run through the §3.3 cache.
func TestServerControlMatchesRebuild(t *testing.T) {
	for _, alg := range []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo, protocol.Grouped} {
		for _, currency := range []int64{0, 4} {
			cfg := smallConfig(alg)
			if alg == protocol.Grouped {
				cfg.Groups = 8
			}
			cfg.Audit = true
			cfg.ClientUpdateProb = 0.4
			cfg.ClientTxnWrites = 2
			cfg.UplinkLatency = 4096
			cfg.CacheCurrency, cfg.CacheSize = currency, 10
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.runWheel()
			if err != nil {
				t.Fatalf("%v cache=%d: %v", alg, currency, err)
			}
			if res.ClientCommits == 0 || res.UplinkRejects == 0 || len(res.AuditLog) <= int(res.ClientCommits) {
				t.Fatalf("%v cache=%d: degenerate run: %d client commits, %d rejects, %d audited commits",
					alg, currency, res.ClientCommits, res.UplinkRejects, len(res.AuditLog))
			}
			if err := e.srv.VerifyControl(); err != nil {
				t.Errorf("%v cache=%d: %v", alg, currency, err)
			}
		}
	}
}
