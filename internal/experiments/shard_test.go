package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestShardStudyCriterion checks the headline sharding claims at the
// real n = 10⁵: per-channel control bandwidth falls at least 3× from
// the k = 1 floor to k = 4, while the restart ratio stays within 1.2×
// of the floor at every shard count. Short mode shrinks the database
// but keeps every structural assertion.
func TestShardStudyCriterion(t *testing.T) {
	cfg := ShardConfig{}
	checkCriterion := true
	if testing.Short() || raceDetectorEnabled {
		// The headline numbers need the paper-scale sparsity; small
		// probes only check structure and soundness-adjacent sanity.
		cfg = ShardConfig{Objects: 2000, Cycles: 80, Clients: 16, ShardCounts: []int{1, 2, 4}}
		checkCriterion = false
	}
	points, err := ShardStudy(Options{Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.normalized()
	if len(points) != len(cfg.ShardCounts) {
		t.Fatalf("got %d points, want %d", len(points), len(cfg.ShardCounts))
	}
	for i, p := range points {
		m := p.Metrics
		if p.Shards != cfg.ShardCounts[i] {
			t.Fatalf("point %d: shards %d, want %d", i, p.Shards, cfg.ShardCounts[i])
		}
		if m.Commits == 0 || m.ControlBitsPerChannel <= 0 {
			t.Fatalf("k=%d: degenerate pass: %+v", p.Shards, m)
		}
		if p.Shards == 1 {
			if m.ChannelRatio != 1 || m.RestartVsFloor != 1 || m.CrossShardFrac != 0 {
				t.Fatalf("k=1 floor is not the floor: %+v", m)
			}
			continue
		}
		if m.CrossShardFrac <= 0 {
			t.Fatalf("k=%d: no cross-shard commits; the cross-shard path is unexercised", p.Shards)
		}
		if m.Obs.Counters["exp_shard_remote_applies"] == 0 {
			t.Fatalf("k=%d: no remote applies despite cross-shard commits", p.Shards)
		}
		if checkCriterion && m.RestartVsFloor > 1.2 {
			t.Errorf("k=%d: restart ratio %.3f is %.2fx the floor, want <= 1.2x", p.Shards, m.RestartRatio, m.RestartVsFloor)
		}
	}
	if checkCriterion {
		for _, p := range points {
			if p.Shards == 4 && p.Metrics.ChannelRatio > 1.0/3 {
				t.Errorf("k=4 per-channel bandwidth is %.3f of the floor, want <= 1/3 (a >= 3x fall)", p.Metrics.ChannelRatio)
			}
		}
	}
}

func TestShardStudyDeterministic(t *testing.T) {
	cfg := ShardConfig{Objects: 600, Cycles: 60, Clients: 8, ShardCounts: []int{1, 2}}
	a, err := ShardStudy(Options{Seed: 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ShardStudy(Options{Seed: 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%s\nvs\n%s", ShardTable(a), ShardTable(b))
	}
	c, err := ShardStudy(Options{Seed: 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical measurements")
	}
}

// TestShardBench checks the BENCH_shard.json projection: schema fields,
// the figure-specific values, per-point obs snapshots, and the merged
// aggregate, plus a JSON round-trip.
func TestShardBench(t *testing.T) {
	points, err := ShardStudy(Options{Seed: 3}, ShardConfig{
		Objects: 600, Cycles: 60, Clients: 8, ShardCounts: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	bench := ShardBench(points)
	if bench.ID != "shard" || bench.Metric != "restart ratio" {
		t.Fatalf("bad header: %+v", bench)
	}
	if len(bench.Points) != 2 || bench.Points[0].X != 1 || bench.Points[1].X != 2 {
		t.Fatalf("bad points: %+v", bench.Points)
	}
	for _, p := range bench.Points {
		m, ok := p.Series[ShardSeries]
		if !ok {
			t.Fatalf("series %q missing at x=%g", ShardSeries, p.X)
		}
		if m.RestartRatio == nil {
			t.Fatalf("x=%g: nil restart ratio", p.X)
		}
		for _, key := range []string{"ctrl_bits_per_channel", "channel_ratio", "restart_vs_floor", "cross_shard_frac"} {
			if _, ok := m.Values[key]; !ok {
				t.Fatalf("x=%g: missing value %q", p.X, key)
			}
		}
		if m.Obs == nil || m.Obs.Counters["exp_shard_control_bits"] == 0 {
			t.Fatalf("x=%g: missing obs control-bits counter", p.X)
		}
	}
	if bench.Obs == nil || bench.Obs.Counters["exp_shard_uplink_commits"] == 0 {
		t.Fatalf("merged obs snapshot missing: %+v", bench.Obs)
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(bench); err != nil {
		t.Fatal(err)
	}
	var back BenchExperiment
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != bench.ID || len(back.Points) != len(bench.Points) {
		t.Fatalf("JSON round-trip changed the experiment: %+v", back)
	}
}

// TestShardStudyRejectsBadConfig covers the validation edges.
func TestShardStudyRejectsBadConfig(t *testing.T) {
	for _, cfg := range []ShardConfig{
		{Objects: 100, ShardCounts: []int{2, 4}}, // no k=1 floor
		{Objects: 100, ShardCounts: []int{1, 0}}, // k out of range
		{Objects: 4, ShardCounts: []int{1, 8}},   // more shards than objects
		{Objects: 1},                             // degenerate database
	} {
		if _, err := ShardStudy(Options{Seed: 1}, cfg); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
}
