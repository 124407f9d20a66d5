package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/single.golden from the current engine")

// singleClientConfigs is the single-client oracle's matrix: every
// feature only the paper's one client has (the §3.3 cache, the airsched
// tuner) and every feature it shares with the multi-client runs, per
// algorithm. testdata/single.golden holds each row's digest as the
// sequential loop sim.Run used for Clients <= 1 produced it before that
// loop was deleted; the event wheel at n = 1 must reproduce them.
func singleClientConfigs() (names []string, cfgs []Config) {
	add := func(name string, cfg Config) {
		names = append(names, name)
		cfgs = append(cfgs, cfg)
	}
	for _, alg := range []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo, protocol.Grouped} {
		groups := 0
		if alg == protocol.Grouped {
			groups = 8
		}
		small := smallConfig(alg)
		small.Groups = groups
		row := func(name string, mut func(*Config)) {
			cfg := small
			mut(&cfg)
			add(fmt.Sprintf("%v/%s", alg, name), cfg)
		}

		row("small", func(*Config) {})
		table1 := DefaultConfig()
		table1.Algorithm, table1.Groups = alg, groups
		table1.Seed = 7
		table1.MaxTime = 5e11
		table1.ClientTxns, table1.MeasureFrom = 120, 30
		add(fmt.Sprintf("%v/table1", alg), table1)
		row("updates+audit", func(c *Config) {
			c.ClientUpdateProb = 0.4
			c.ClientTxnWrites = 2
			c.UplinkLatency = 4096
			c.Audit = true
		})
		row("loss+doze+restart-delay", func(c *Config) {
			c.FaultLoss = 0.2
			c.FaultDoze = 0.1
			c.FaultDozeLen = 2
			c.FaultSeed = 11
			c.RestartDelay = 10000
		})
		row("zipf", func(c *Config) { c.ZipfTheta = 0.9 })

		for _, currency := range []int64{1, 4, 16} {
			row(fmt.Sprintf("cache=%d/lru10+audit", currency), func(c *Config) {
				c.CacheCurrency = currency
				c.CacheSize = 10
				c.Audit = true
			})
			row(fmt.Sprintf("cache=%d/unbounded+updates+loss", currency), func(c *Config) {
				c.CacheCurrency = currency
				c.ClientUpdateProb = 0.3
				c.UplinkLatency = 4096
				c.FaultLoss = 0.15
				c.FaultSeed = 5
			})
		}

		// The airsched tuner, unfaulted and — with the cache in front of
		// it — under frame loss, so the post-miss retry is pinned at every
		// (Disks, IndexM) shape (40 to 180 retries a row). The sequential
		// loop never returned once the missed read was of the object that
		// closes the major cycle (TestAirschedRetryLandsInLaterCycle), so
		// the faulted rows use a skew and a fault seed under which that
		// read does not come up.
		for _, disks := range []int{1, 3} {
			for _, indexM := range []int{0, 1, 4} {
				row(fmt.Sprintf("disks=%d/index=%d/plain", disks, indexM), func(c *Config) {
					c.ZipfTheta = 0.95
					c.Disks = disks
					c.IndexM = indexM
				})
				row(fmt.Sprintf("disks=%d/index=%d/cached+loss", disks, indexM), func(c *Config) {
					c.ZipfTheta = 1.5
					c.Disks = disks
					c.IndexM = indexM
					c.CacheCurrency = 4
					c.FaultLoss = 0.1
					c.FaultSeed = 42
				})
			}
		}
	}
	return names, cfgs
}

// resultDigest hashes everything a Result reports except SimulatedTime
// and PerClient: the obs snapshot as /metrics would print it, the
// encoded trace, and every sample, counter, audit entry and read-set.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	snap, err := json.Marshal(res.Obs)
	if err != nil {
		t.Fatal(err)
	}
	rest := *res
	rest.SimulatedTime, rest.PerClient = 0, nil
	rest.Obs, rest.Trace = obs.Snapshot{}, nil
	h := sha256.New()
	h.Write(snap)
	h.Write(obs.EncodeTrace(res.Trace))
	fmt.Fprintf(h, "%+v", rest)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSingleClientGolden(t *testing.T) {
	names, cfgs := singleClientConfigs()
	if len(cfgs) != 115 {
		t.Fatalf("matrix has %d configs, want 115", len(cfgs))
	}
	var got bytes.Buffer
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if res.ResponseTime.N()+res.UpdateResponseTime.N() != cfg.ClientTxns-cfg.MeasureFrom {
			t.Fatalf("%s: measured %d+%d transactions, want %d", names[i],
				res.ResponseTime.N(), res.UpdateResponseTime.N(), cfg.ClientTxns-cfg.MeasureFrom)
		}
		fmt.Fprintf(&got, "%s %s\n", names[i], resultDigest(t, res))
	}

	path := filepath.Join("testdata", "single.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, the matrix %d", path, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("digest moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
