package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

// The differential suite: the event-wheel engine must produce a Result
// byte-identical to the legacy heap engine — same samples, same obs
// snapshot, same trace, same per-client stats — for every multi-client
// configuration both engines accept.

// runBothEngines executes the same config under both engines: the
// legacy oracle (legacy_test.go) on an engine of its own, the wheel
// through Run as production reaches it.
func runBothEngines(t *testing.T, cfg Config) (legacy, wheel *Result) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if legacy, err = e.runMulti(); err != nil {
		t.Fatalf("legacy engine: %v", err)
	}
	if wheel, err = Run(cfg); err != nil {
		t.Fatalf("wheel engine: %v", err)
	}
	return legacy, wheel
}

// mustEqualResults asserts byte-identity between two Results.
func mustEqualResults(t *testing.T, legacy, wheel *Result) {
	t.Helper()
	l, w := *legacy, *wheel

	// The obs snapshots marshal deterministically; compare the exact
	// bytes a /metrics endpoint (or an embedded BENCH table) would show.
	lo, err := json.Marshal(l.Obs)
	if err != nil {
		t.Fatalf("marshal legacy obs: %v", err)
	}
	wo, err := json.Marshal(w.Obs)
	if err != nil {
		t.Fatalf("marshal wheel obs: %v", err)
	}
	if !bytes.Equal(lo, wo) {
		t.Errorf("obs snapshots differ:\nlegacy: %s\nwheel:  %s", lo, wo)
	}
	if !reflect.DeepEqual(l.Trace, w.Trace) {
		t.Errorf("traces differ: legacy %d events, wheel %d events", len(l.Trace), len(w.Trace))
		for i := range l.Trace {
			if i < len(w.Trace) && l.Trace[i] != w.Trace[i] {
				t.Errorf("first divergence at event %d: legacy %+v wheel %+v", i, l.Trace[i], w.Trace[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(l, w) {
		t.Errorf("results differ beyond obs/trace:\nlegacy: %+v\nwheel:  %+v", l, w)
	}
}

// wheelDiffConfigs enumerates every multi-client shape the existing
// figures exercise (plus the fault profiles) at n <= 1000.
func wheelDiffConfigs() map[string]Config {
	cfgs := make(map[string]Config)

	// The clients figure: Clients in {2, 4, 8} per algorithm.
	for _, alg := range []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo} {
		for _, n := range []int{2, 4, 8} {
			cfg := smallConfig(alg)
			cfg.Clients = n
			cfg.ClientTxns = 40
			cfg.MeasureFrom = 10
			cfgs[fmt.Sprintf("%v/clients=%d", alg, n)] = cfg
		}
	}

	// The same figure exactly as the "clients" row of experiments'
	// figure table shapes it — Table 1 defaults, ClientTxns = max(Txns/x, 40), MeasureFrom =
	// ClientTxns/4 — at Txns 40 (every x runs 40) and at Txns 320, where
	// the per-client count actually scales with x.
	for _, alg := range []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo} {
		for _, txns := range []int{40, 320} {
			for _, x := range []int{2, 4, 8} {
				cfg := DefaultConfig()
				cfg.Algorithm = alg
				cfg.Seed = 7
				cfg.MaxTime = 5e11
				cfg.Clients = x
				cfg.ClientTxns = max(txns/x, 40)
				cfg.MeasureFrom = cfg.ClientTxns / 4
				cfgs[fmt.Sprintf("figure/%v/txns=%d/clients=%d", alg, txns, x)] = cfg
			}
		}
	}

	grouped := smallConfig(protocol.Grouped)
	grouped.Groups = 8
	grouped.Clients = 4
	grouped.ClientTxns = 40
	grouped.MeasureFrom = 10
	cfgs["grouped/clients=4"] = grouped

	updates := smallConfig(protocol.FMatrix)
	updates.Clients = 6
	updates.ClientTxns = 40
	updates.MeasureFrom = 10
	updates.ClientUpdateProb = 0.4
	updates.ClientTxnWrites = 2
	updates.UplinkLatency = 4096
	cfgs["updates"] = updates

	faults := smallConfig(protocol.FMatrix)
	faults.Clients = 8
	faults.ClientTxns = 40
	faults.MeasureFrom = 10
	faults.FaultLoss = 0.2
	faults.FaultDoze = 0.1
	faults.FaultDozeLen = 2
	faults.FaultSeed = 11
	cfgs["faults"] = faults

	zipf := smallConfig(protocol.RMatrix)
	zipf.Clients = 4
	zipf.ClientTxns = 40
	zipf.MeasureFrom = 10
	zipf.ZipfTheta = 0.9
	cfgs["zipf"] = zipf

	audit := smallConfig(protocol.FMatrix)
	audit.Clients = 4
	audit.ClientTxns = 30
	audit.MeasureFrom = 5
	audit.ClientUpdateProb = 0.3
	audit.Audit = true
	cfgs["audit+updates"] = audit

	restart := smallConfig(protocol.Datacycle)
	restart.Clients = 4
	restart.ClientTxns = 30
	restart.MeasureFrom = 5
	restart.RestartDelay = 10000
	cfgs["restart-delay"] = restart

	// Sparse timeline: inter-transaction gaps spanning many broadcast
	// cycles push events past the wheel horizon into the overflow heap
	// and exercise the empty-ring fast-forward.
	sparse := smallConfig(protocol.FMatrix)
	sparse.Clients = 4
	sparse.ClientTxns = 12
	sparse.MeasureFrom = 2
	sparse.MeanInterTxnDelay = 5e6
	cfgs["sparse-overflow"] = sparse

	return cfgs
}

func TestWheelMatchesLegacyAcrossConfigs(t *testing.T) {
	for name, cfg := range wheelDiffConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			legacy, wheel := runBothEngines(t, cfg)
			mustEqualResults(t, legacy, wheel)
		})
	}
}

func TestWheelMatchesLegacyAtThousandClients(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-client differential run")
	}
	cfg := smallConfig(protocol.FMatrix)
	cfg.Clients = 1000
	cfg.ClientTxns = 6
	cfg.MeasureFrom = 2
	cfg.ClientUpdateProb = 0.1
	cfg.UplinkLatency = 4096
	cfg.FaultLoss = 0.1
	cfg.FaultDoze = 0.05
	cfg.FaultDozeLen = 2
	cfg.FaultSeed = 23
	legacy, wheel := runBothEngines(t, cfg)
	mustEqualResults(t, legacy, wheel)
	if legacy.Restarts.N() == 0 && legacy.UpdateRestarts.N() == 0 {
		t.Fatal("degenerate run: no measured transactions")
	}
}

// TestWheelDeterministicAcrossGOMAXPROCS pins that the wheel engine —
// like the rest of the sim — is a pure function of Config regardless of
// scheduler parallelism (the differential suite also runs under -race
// via make race).
func TestWheelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Clients = 8
	cfg.ClientTxns = 40
	cfg.MeasureFrom = 10
	cfg.FaultLoss = 0.15
	cfg.FaultSeed = 5

	prev := runtime.GOMAXPROCS(1)
	one, err := Run(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("GOMAXPROCS=1 run: %v", err)
	}
	many, err := Run(cfg)
	if err != nil {
		t.Fatalf("default GOMAXPROCS run: %v", err)
	}
	mustEqualResults(t, one, many)
}

// TestWheelDozeWakeOrdering drives heavy doze/loss fault schedules so
// reads repeatedly skip cycles (doze-wake on the wheel lands events
// several slots ahead) and asserts the wheel still reproduces the
// legacy engine exactly, doze trace included.
func TestWheelDozeWakeOrdering(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Clients = 64
	cfg.ClientTxns = 12
	cfg.MeasureFrom = 2
	cfg.FaultLoss = 0.3
	cfg.FaultDoze = 0.2
	cfg.FaultDozeLen = 3
	cfg.FaultSeed = 41
	legacy, wheel := runBothEngines(t, cfg)
	mustEqualResults(t, legacy, wheel)

	dozes := 0
	for _, ev := range wheel.Trace {
		if ev.Kind == obs.EvDoze {
			dozes++
		}
	}
	if dozes == 0 {
		t.Fatal("fault schedule induced no doze-wake events; the test exercises nothing")
	}
}

// TestWheelMassRetune makes nearly every client miss cycles at once
// (FaultDoze close to the cap with long windows), so after a dropped
// cycle a wave of clients retunes into the same later slot
// simultaneously; pop order within the slot must still be the global
// (time, seq) order the legacy heap produces.
func TestWheelMassRetune(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Clients = 128
	cfg.ClientTxns = 8
	cfg.MeasureFrom = 2
	cfg.FaultDoze = 0.6
	cfg.FaultDozeLen = 4
	cfg.FaultSeed = 3
	cfg.MaxTime = 5e11
	legacy, wheel := runBothEngines(t, cfg)
	mustEqualResults(t, legacy, wheel)
}

func TestClientsAndEngineBoundsValidation(t *testing.T) {
	base := smallConfig(protocol.FMatrix)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative clients", func(c *Config) { c.Clients = -1 }, "Clients"},
		{"clients overflow", func(c *Config) { c.Clients = MaxClients + 1 }, "MaxClients"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := Run(cfg); err == nil {
				t.Fatal("Run should refuse the invalid config")
			}
		})
	}

	// Clients = 0 and 1 are both the paper's single client: the same run.
	var runs [2]*Result
	for n := range runs {
		cfg := base
		cfg.Clients = n
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("Clients=%d: %v", n, err)
		}
		r.Config.Clients = 0
		runs[n] = r
	}
	mustEqualResults(t, runs[0], runs[1])
}

// TestCompactRNGDeterminism pins that compact mode is seed-pure (same
// config, same Result) and actually responds to the seed.
func TestCompactRNGDeterminism(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Clients = 16
	cfg.ClientTxns = 20
	cfg.MeasureFrom = 5
	cfg.CompactRNG = true

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, a, b)

	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Trace, c.Trace) && a.SimulatedTime == c.SimulatedTime {
		t.Fatal("different seeds produced identical runs under CompactRNG")
	}
}

// TestWheelAllocsPerEvent pins the event-wheel's allocation behaviour
// at scale: with CompactRNG, what the engine allocates is setup (the
// flat arrays, a fixed number per run), one read-set backing array per
// client, and per-cycle snapshots — never per-event garbage. Doubling
// the clients cancels the setup out of the difference quotient, which
// leaves the read-set array's two allocations (room for four reads,
// then eight) over a client's 18 events: 0.1119. One more allocation
// per client would read 0.167, so the cache and tuner state are
// setup-only when unused.
func TestWheelAllocsPerEvent(t *testing.T) {
	measure := func(n int) (allocs, events float64) {
		cfg := smallConfig(protocol.FMatrix)
		cfg.Clients = n
		cfg.ClientTxns = 3
		cfg.MeasureFrom = 1
		cfg.CompactRNG = true
		allocs = testing.AllocsPerRun(1, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, float64(cfg.Clients * cfg.ClientTxns * (cfg.ClientTxnLength + 1))
	}
	a2, e2 := measure(2000)
	a4, e4 := measure(4000)
	if perEvent := a2 / e2; perEvent > 0.5 {
		t.Fatalf("allocs per event = %.3f (%.0f allocs / %.0f events); the wheel must not allocate per event", perEvent, a2, e2)
	}
	if marginal := (a4 - a2) / (e4 - e2); marginal > 0.23 {
		t.Fatalf("marginal allocs per event = %.4f ((%.0f - %.0f) allocs / %.0f events), want <= 0.23", marginal, a4, a2, e4-e2)
	}
}
