package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// The airsched sweep must reproduce the headline claim at high skew:
// a 3-disk, (1,8)-indexed program cuts tuning time at least 3× against
// the flat disk at equal-or-better access time.
func TestAirschedSweepClaim(t *testing.T) {
	opt := quick()
	opt.Txns = 300
	opt.MeasureFrom = 100
	e, err := ByID("airsched", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Labels) != 2 || e.Labels[0] != "flat" || e.Labels[1] != "airsched" {
		t.Fatalf("labels = %v", e.Labels)
	}
	if e.Metric() != TuningFrames {
		t.Fatalf("airsched sweep should plot tuning time, got %v", e.Metric())
	}
	last := e.Points[len(e.Points)-1]
	if last.X != 0.95 {
		t.Fatalf("last point x = %g, want 0.95", last.X)
	}
	flat, air := last.Runs["flat"], last.Runs["airsched"]
	if flat.TuningMean < 3*air.TuningMean {
		t.Errorf("θ=0.95: flat tuning %.1f vs airsched %.1f — want >= 3x reduction", flat.TuningMean, air.TuningMean)
	}
	if air.AccessMean > flat.AccessMean {
		t.Errorf("θ=0.95: airsched access %.0f vs flat %.0f — must not regress", air.AccessMean, flat.AccessMean)
	}
}

// The disk-count sweep runs both indexed and unindexed variants at
// every disk count, deterministically at any parallelism, and the
// benchmark JSON round-trips with the shared schema.
func TestAirschedDisksSweepDeterministicJSON(t *testing.T) {
	run := func(par int) *Experiment {
		opt := quick()
		opt.Txns = 60
		opt.MeasureFrom = 20
		opt.Parallelism = par
		e, err := ByID("airdisks", opt)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq, parl := run(1), run(4)
	var a, b bytes.Buffer
	if err := seq.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sweep not byte-identical across parallelism:\n%s\nvs\n%s", a.String(), b.String())
	}

	var decoded BenchExperiment
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "airdisks" || len(decoded.Points) != 4 {
		t.Fatalf("decoded %+v", decoded)
	}
	for _, pt := range decoded.Points {
		for _, lbl := range []string{"unindexed", "indexed"} {
			m, ok := pt.Series[lbl]
			if !ok {
				t.Fatalf("point x=%g missing series %q", pt.X, lbl)
			}
			if m.TuningMean == nil || *m.TuningMean <= 0 {
				t.Fatalf("point x=%g %s: tuning not recorded: %+v", pt.X, lbl, m)
			}
		}
	}
}

// Off-scale runs must serialize as JSON nulls, not break encoding.
func TestBenchJSONOffScale(t *testing.T) {
	e := &Experiment{
		ID: "t", Labels: []string{"a"},
		Points: []Point{{X: 1, Runs: map[string]Metrics{
			"a": {ResponseMean: inf(), RestartRatio: inf(), OffScale: true},
		}}},
	}
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded BenchExperiment
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	m := decoded.Points[0].Series["a"]
	if m.ResponseMean != nil || !m.OffScale {
		t.Fatalf("off-scale run should carry null metrics: %+v", m)
	}
}

func inf() float64 { return math.Inf(1) }
