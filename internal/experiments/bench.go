package experiments

import (
	"encoding/json"
	"io"
	"math"

	"broadcastcc/internal/obs"
)

// The machine-readable benchmark schema shared by every sweep: bcbench
// -json writes one BENCH_<id>.json per figure in this format, so
// downstream tooling reads the paper reproductions and the airsched
// study identically.

// BenchMetrics is the JSON form of one run's measurements. Off-scale
// runs carry null numeric fields (JSON has no +Inf).
type BenchMetrics struct {
	ResponseMean *float64 `json:"response_mean"`
	RestartRatio *float64 `json:"restart_ratio"`
	AccessMean   *float64 `json:"access_mean"`
	TuningMean   *float64 `json:"tuning_mean"`
	Cycles       int64    `json:"cycles"`
	Commits      int64    `json:"commits"`
	CacheHits    int64    `json:"cache_hits"`
	OffScale     bool     `json:"off_scale"`
	// Values holds figure-specific scalar metrics keyed by name (e.g.
	// the wire study's bytes-per-cycle and FEC recovery ratios) that
	// have no column in the fixed schema above.
	Values map[string]float64 `json:"values,omitempty"`
	// Obs is the run's final obs-registry snapshot; off-scale runs
	// carry none. encoding/json sorts map keys, so the embedded
	// snapshot keeps BENCH_<id>.json byte-identical at any sweep
	// parallelism.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// BenchPoint is one x-value with every series' metrics.
type BenchPoint struct {
	X      float64                 `json:"x"`
	Series map[string]BenchMetrics `json:"series"`
}

// BenchExperiment is the JSON form of a completed sweep.
type BenchExperiment struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"xlabel"`
	Metric string       `json:"metric"`
	Labels []string     `json:"labels"`
	Points []BenchPoint `json:"points"`
	// Obs merges every run's registry snapshot (obs.Snapshot.Merge:
	// counters and gauges sum, equal-bounds histograms sum
	// bucket-by-bucket) — the sweep's aggregate view.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// finiteOrNil maps non-finite values (off-scale runs) to JSON null.
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// project builds a figure in the benchmark schema from its header (id,
// title, x-label, metric and labels filled in), its points and the
// metrics of every (point, label). The figure-level obs block is the
// merge of every run that carries one — done here and nowhere else.
func project[P any](head BenchExperiment, points []P, x func(P) float64, at func(p P, label string) BenchMetrics) BenchExperiment {
	merged := obs.Snapshot{Counters: map[string]int64{}}
	anyObs := false
	for _, p := range points {
		bp := BenchPoint{X: x(p), Series: map[string]BenchMetrics{}}
		for _, lbl := range head.Labels {
			bm := at(p, lbl)
			if bm.Obs != nil {
				merged = merged.Merge(*bm.Obs)
				anyObs = true
			}
			bp.Series[lbl] = bm
		}
		head.Points = append(head.Points, bp)
	}
	if anyObs {
		head.Obs = &merged
	}
	return head
}

// benchMetrics is the JSON form of one simulation run.
func benchMetrics(m Metrics) BenchMetrics {
	bm := BenchMetrics{
		ResponseMean: finiteOrNil(m.ResponseMean),
		RestartRatio: finiteOrNil(m.RestartRatio),
		AccessMean:   finiteOrNil(m.AccessMean),
		TuningMean:   finiteOrNil(m.TuningMean),
		Cycles:       m.Cycles,
		Commits:      m.Commits,
		CacheHits:    m.CacheHits,
		OffScale:     m.OffScale,
	}
	if m.Obs.Counters != nil {
		bm.Obs = &m.Obs
	}
	return bm
}

// Bench converts the experiment to its machine-readable form.
func (e *Experiment) Bench() BenchExperiment {
	head := BenchExperiment{
		ID:     e.ID,
		Title:  e.Title,
		XLabel: e.XLabel,
		Metric: e.Metric().label(),
		Labels: e.Labels,
	}
	return project(head, e.Points,
		func(pt Point) float64 { return pt.X },
		func(pt Point, lbl string) BenchMetrics { return benchMetrics(pt.Runs[lbl]) })
}

// WriteJSON emits the experiment in the benchmark schema.
func (e *Experiment) WriteJSON(w io.Writer) error {
	return e.Bench().WriteJSON(w)
}

// WriteJSON emits an already-projected benchmark — the shared path for
// sweeps and for standalone analyses like the grouped-bandwidth study.
func (b BenchExperiment) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
