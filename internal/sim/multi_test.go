package sim

import (
	"math"
	"reflect"
	"testing"

	"broadcastcc/internal/bctest"
	"broadcastcc/internal/core"
	"broadcastcc/internal/protocol"
)

func TestMultiClientValidation(t *testing.T) {
	cfg := smallConfig(protocol.RMatrix)
	cfg.Clients = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative clients should fail")
	}
	cfg.Clients = 3
	cfg.CacheCurrency = 5
	if err := cfg.Validate(); err == nil {
		t.Error("cache + multi-client should fail")
	}
}

func TestMultiClientBasics(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Clients = 3
	cfg.ClientTxns = 60
	cfg.MeasureFrom = 10
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerClient) != 3 {
		t.Fatalf("PerClient = %d entries", len(r.PerClient))
	}
	wantPer := cfg.ClientTxns - cfg.MeasureFrom
	total := 0
	for i, cs := range r.PerClient {
		if cs.ResponseTime.N() == 0 {
			t.Fatalf("client %d measured nothing", i)
		}
		total += cs.ResponseTime.N()
	}
	if total != r.ResponseTime.N() {
		t.Errorf("pooled %d != sum of per-client %d", r.ResponseTime.N(), total)
	}
	if r.ResponseTime.N() != 3*wantPer {
		t.Errorf("measured %d, want %d", r.ResponseTime.N(), 3*wantPer)
	}
	if r.ResponseTime.Mean() <= 0 || r.SimulatedTime <= 0 {
		t.Error("degenerate metrics")
	}
}

// The single client is a one-client run like any other: one PerClient
// entry, equal to the pooled samples.
func TestSingleClientFillsPerClient(t *testing.T) {
	for _, n := range []int{0, 1} {
		cfg := smallConfig(protocol.FMatrix)
		cfg.Clients = n
		cfg.ClientUpdateProb = 0.3
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.ResponseTime.N() == 0 || r.UpdateResponseTime.N() == 0 {
			t.Fatalf("Clients=%d: degenerate run: %d read-only, %d update transactions measured",
				n, r.ResponseTime.N(), r.UpdateResponseTime.N())
		}
		want := []ClientStats{{
			ResponseTime:       r.ResponseTime,
			Restarts:           r.Restarts,
			UpdateResponseTime: r.UpdateResponseTime,
		}}
		if !reflect.DeepEqual(r.PerClient, want) {
			t.Errorf("Clients=%d: PerClient = %+v, want the pooled samples %+v", n, r.PerClient, want)
		}
	}
}

// The paper's justification for simulating one client: read-only
// validation is purely local, so per-client performance is independent
// of the client count. Compare a 4-client run's pooled mean against a
// single-client run at the same parameters.
func TestClientCountIndependenceForReadOnly(t *testing.T) {
	base := smallConfig(protocol.RMatrix)
	base.ClientTxns = 400
	base.MeasureFrom = 50
	single, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.Clients = 4
	multi.ClientTxns = 200
	multi.MeasureFrom = 25
	pooled, err := Run(multi)
	if err != nil {
		t.Fatal(err)
	}
	s, m := single.ResponseTime.Mean(), pooled.ResponseTime.Mean()
	if diff := math.Abs(s-m) / s; diff > 0.25 {
		t.Errorf("read-only response should not depend on client count: single %.4g vs 4 clients %.4g (%.0f%% apart)",
			s, m, 100*diff)
	}
	// And every individual client should look like every other.
	for i, cs := range pooled.PerClient {
		if diff := math.Abs(cs.ResponseTime.Mean()-m) / m; diff > 0.35 {
			t.Errorf("client %d mean %.4g deviates %.0f%% from pool %.4g", i, cs.ResponseTime.Mean(), 100*diff, m)
		}
	}
}

// Multiple clients committing updates over the uplink genuinely
// interact; the induced history must still satisfy APPROX with a
// serializable update sub-history.
func TestMultiClientUpdatesConsistent(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Objects = 12
	cfg.ClientTxnLength = 3
	cfg.Clients = 3
	cfg.ClientTxns = 50
	cfg.MeasureFrom = 5
	cfg.ClientUpdateProb = 0.4
	cfg.ClientTxnWrites = 1
	cfg.UplinkLatency = 2048
	cfg.Audit = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ClientCommits == 0 {
		t.Fatal("no client commits")
	}
	h := bctest.InducedHistory(r.AuditLog, r.CommittedReadSets)
	if v := core.Approx(h); !v.OK {
		t.Fatalf("multi-client update run violates APPROX: %s", v.Reason)
	}
	if v := core.ConflictSerializable(h.UpdateSubhistory()); !v.OK {
		t.Fatalf("update sub-history not serializable: %s", v.Reason)
	}
}

// Contended uplinks: with several writers on few objects some commits
// must be rejected and retried.
func TestMultiClientUplinkContention(t *testing.T) {
	cfg := smallConfig(protocol.Datacycle)
	cfg.Objects = 8
	cfg.ClientTxnLength = 3
	cfg.Clients = 4
	cfg.ClientTxns = 80
	cfg.MeasureFrom = 10
	cfg.ClientUpdateProb = 0.7
	cfg.UplinkLatency = 50000 // long round trip: wide vulnerability window
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.UplinkRejects == 0 {
		t.Error("expected uplink rejections under multi-client contention")
	}
	if r.ClientCommits == 0 {
		t.Error("commits must still get through")
	}
}

func TestMultiClientDeterminism(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.Clients = 3
	cfg.ClientTxns = 40
	cfg.MeasureFrom = 5
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ResponseTime.Mean() != r2.ResponseTime.Mean() || r1.SimulatedTime != r2.SimulatedTime {
		t.Error("multi-client runs must be deterministic for a fixed seed")
	}
}

func TestMultiClientMaxTime(t *testing.T) {
	cfg := smallConfig(protocol.Datacycle)
	cfg.Clients = 2
	cfg.MaxTime = float64(cfg.ObjectBits)
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected MaxTime error")
	}
}
