package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestGroupedBandwidthCriterion checks the headline claim of the
// grouped-matrix scaling work at the real n = 10⁵: some adaptive group
// count broadcasts at least 10× less control than the dense n²·TS
// F-Matrix while restarting clients at most 1.2× as often, on the zipf
// θ = 0.95 workload. Short mode shrinks the database but keeps every
// structural assertion.
func TestGroupedBandwidthCriterion(t *testing.T) {
	cfg := GroupedConfig{GroupCounts: []int{1024, 32768}}
	if testing.Short() || raceDetectorEnabled {
		cfg = GroupedConfig{
			Objects:     2000,
			Cycles:      200,
			Clients:     32,
			GroupCounts: []int{64, 1024},
		}
	}
	points, err := GroupedBandwidth(Options{Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.normalized()
	if len(points) != len(cfg.GroupCounts) {
		t.Fatalf("got %d points, want %d", len(points), len(cfg.GroupCounts))
	}

	criterionMet := false
	for i, p := range points {
		if p.Groups != cfg.GroupCounts[i] {
			t.Fatalf("point %d: groups %d, want %d", i, p.Groups, cfg.GroupCounts[i])
		}
		dense := p.Series[GroupedSeriesDense]
		static := p.Series[GroupedSeriesStatic]
		adaptive := p.Series[GroupedSeriesAdaptive]

		if dense.BandwidthRatio != 1 {
			t.Errorf("g=%d: dense bandwidth ratio %v, want 1", p.Groups, dense.BandwidthRatio)
		}
		if dense.Restarts == 0 {
			t.Errorf("g=%d: dense series saw no restarts; workload has no contention to measure", p.Groups)
		}
		for name, m := range map[string]GroupedMetrics{"static": static, "adaptive": adaptive} {
			if m.ControlBitsPerCycle <= 0 || m.Commits == 0 {
				t.Errorf("g=%d %s: empty measurement %+v", p.Groups, name, m)
			}
			// MC(i, s) >= C(i, j): a coarser bound can only reject more,
			// so grouped restart ratios sit on or above the dense floor.
			if m.RestartRatio < dense.RestartRatio {
				t.Errorf("g=%d %s: restart ratio %v below the exact-C floor %v",
					p.Groups, name, m.RestartRatio, dense.RestartRatio)
			}
			if got := m.Obs.Counters["exp_grouped_control_bits"]; got == 0 {
				t.Errorf("g=%d %s: obs control-bits counter is zero", p.Groups, name)
			}
		}
		// The heat-adaptive partition must beat the uniform one where
		// the spectrum is coarse enough to matter.
		if static.RestartRatio > 2*dense.RestartRatio && adaptive.RestartRatio >= static.RestartRatio {
			t.Errorf("g=%d: adaptive restart %v not below static %v",
				p.Groups, adaptive.RestartRatio, static.RestartRatio)
		}
		if adaptive.Regroups == 0 || adaptive.RegroupChurn == 0 {
			t.Errorf("g=%d: adaptive series never regrouped (%d epochs, churn %d)",
				p.Groups, adaptive.Regroups, adaptive.RegroupChurn)
		}
		if adaptive.Obs.Counters["exp_grouped_regroup_churn"] != adaptive.RegroupChurn {
			t.Errorf("g=%d: churn counter %d disagrees with metrics %d",
				p.Groups, adaptive.Obs.Counters["exp_grouped_regroup_churn"], adaptive.RegroupChurn)
		}
		if adaptive.BandwidthRatio <= 0.1 && adaptive.RestartRatio <= 1.2*dense.RestartRatio {
			criterionMet = true
		}
	}
	if !criterionMet {
		t.Errorf("no adaptive point met the criterion (>=10x less control at <=1.2x dense restarts):\n%s",
			GroupedTable(points))
	}
}

// TestGroupedBandwidthDeterministic pins that the analysis is a pure
// function of (seed, config) — required for byte-identical BENCH JSON.
func TestGroupedBandwidthDeterministic(t *testing.T) {
	cfg := GroupedConfig{
		Objects:     500,
		Cycles:      80,
		Clients:     8,
		GroupCounts: []int{16, 128},
	}
	a, err := GroupedBandwidth(Options{Seed: 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GroupedBandwidth(Options{Seed: 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%s\nvs\n%s", GroupedTable(a), GroupedTable(b))
	}
	c, err := GroupedBandwidth(Options{Seed: 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical measurements")
	}
}

// TestGroupedBench checks the BENCH_<id>.json projection: schema
// fields, per-series obs snapshots, and the merged aggregate.
func TestGroupedBench(t *testing.T) {
	points, err := GroupedBandwidth(Options{Seed: 3}, GroupedConfig{
		Objects:     800,
		Cycles:      60,
		Clients:     8,
		GroupCounts: []int{32},
	})
	if err != nil {
		t.Fatal(err)
	}
	bench := GroupedBench(points)
	if bench.ID != "grouped" || bench.Metric != "restart ratio" {
		t.Fatalf("bad header: %+v", bench)
	}
	if len(bench.Points) != 1 || bench.Points[0].X != 32 {
		t.Fatalf("bad points: %+v", bench.Points)
	}
	for _, lbl := range bench.Labels {
		m, ok := bench.Points[0].Series[lbl]
		if !ok {
			t.Fatalf("series %q missing", lbl)
		}
		if m.RestartRatio == nil {
			t.Fatalf("series %q: nil restart ratio", lbl)
		}
		if m.Obs == nil || m.Obs.Counters["exp_grouped_control_bits"] == 0 {
			t.Fatalf("series %q: missing obs control-bits counter", lbl)
		}
	}
	if bench.Obs == nil || bench.Obs.Counters["exp_grouped_commits"] == 0 {
		t.Fatalf("merged obs snapshot missing: %+v", bench.Obs)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(bench); err != nil {
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

// TestGroupedBandwidthRejectsBadConfig covers the validation edges.
func TestGroupedBandwidthRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg  GroupedConfig
		want string
	}{
		{GroupedConfig{Objects: 100, GroupCounts: []int{0}}, "group count 0 out of range"},
		{GroupedConfig{Objects: 100, GroupCounts: []int{101}}, "group count 101 out of range"},
		// The workload's 4 reads per transaction exceed 3 objects.
		{GroupedConfig{Objects: 3}, "degenerate grouped config"},
	} {
		_, err := GroupedBandwidth(Options{Seed: 1}, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("config %+v: got %v, want error containing %q", tc.cfg, err, tc.want)
		}
	}
}
