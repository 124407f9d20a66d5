package experiments

import (
	"strings"
	"testing"

	"broadcastcc/internal/protocol"
)

// quick returns options that keep sweeps fast in unit tests while
// preserving the qualitative shape.
func quick() Options {
	return Options{Txns: 120, MeasureFrom: 20, Seed: 3, MaxTime: 5e11}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Txns != 1000 || o.MeasureFrom != 500 || o.Seed != 1 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if len(o.Algorithms) != 4 {
		t.Errorf("default algorithms = %v", o.Algorithms)
	}
	cfg := o.baseConfig(protocol.RMatrix)
	if cfg.Algorithm != protocol.RMatrix || cfg.ClientTxns != 1000 {
		t.Errorf("baseConfig wrong: %+v", cfg)
	}
}

func TestByIDDispatch(t *testing.T) {
	if _, err := ByID("nope", quick()); err == nil {
		t.Error("unknown id should fail")
	}
	// One real dispatch (small).
	opt := quick()
	opt.Txns = 40
	opt.MeasureFrom = 10
	e, err := ByID("2A", opt) // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "2a" || len(e.Points) != 5 {
		t.Errorf("figure = %s with %d points", e.ID, len(e.Points))
	}
}

func TestFigure2aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	e, err := ByID("2a", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Points) != 5 || len(e.Labels) != 4 {
		t.Fatalf("unexpected dimensions: %d points, %v labels", len(e.Points), e.Labels)
	}
	// The paper's qualitative claims at the contended end (length >= 6):
	// Datacycle >> R-Matrix >> F-Matrix, F-Matrix-No <= F-Matrix.
	for _, pt := range e.Points {
		if pt.X < 6 {
			continue
		}
		d := pt.Runs[protocol.Datacycle.String()]
		r := pt.Runs[protocol.RMatrix.String()]
		f := pt.Runs[protocol.FMatrix.String()]
		fno := pt.Runs[protocol.FMatrixNo.String()]
		if !(d.ResponseMean > r.ResponseMean && r.ResponseMean > f.ResponseMean) {
			t.Errorf("x=%g: ordering violated: D=%.4g R=%.4g F=%.4g",
				pt.X, d.ResponseMean, r.ResponseMean, f.ResponseMean)
		}
		if fno.ResponseMean > f.ResponseMean {
			t.Errorf("x=%g: ideal baseline slower than F-Matrix", pt.X)
		}
		if !(d.RestartRatio > f.RestartRatio) {
			t.Errorf("x=%g: Datacycle restart ratio %.4g not above F-Matrix %.4g",
				pt.X, d.RestartRatio, f.RestartRatio)
		}
	}
	if v := e.CheckShape(0.35); len(v) > 0 {
		t.Errorf("shape violations: %v", v)
	}
}

func TestRenderingHelpers(t *testing.T) {
	opt := quick()
	opt.Txns = 40
	opt.MeasureFrom = 10
	opt.Algorithms = []protocol.Algorithm{protocol.RMatrix, protocol.FMatrix}
	e, err := ByID("3b", opt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table(e.Metric())
	if !strings.Contains(tbl, "Figure 3b") || !strings.Contains(tbl, "R-Matrix") {
		t.Errorf("table rendering:\n%s", tbl)
	}
	var csv strings.Builder
	if err := e.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(e.Points)+1 {
		t.Errorf("CSV rows = %d, want %d", len(lines), len(e.Points)+1)
	}
	if !strings.HasPrefix(lines[0], "x,R-Matrix_response") {
		t.Errorf("CSV header = %q", lines[0])
	}
	xs, ys, err := e.seriesOf("F-Matrix", ResponseTime)
	if err != nil || len(xs) != len(e.Points) || len(ys) != len(xs) {
		t.Errorf("seriesOf: %v %v %v", xs, ys, err)
	}
	if _, _, err := e.seriesOf("Bogus", ResponseTime); err == nil {
		t.Error("unknown series should fail")
	}
	if e.Metric() != ResponseTime {
		t.Error("3b metric should be response time")
	}
}

func TestFigure2bUsesRestartRatio(t *testing.T) {
	e := &Experiment{ID: "2b"}
	if e.Metric() != RestartRatio {
		t.Error("2b metric should be restart ratio")
	}
	if RestartRatio.label() == ResponseTime.label() {
		t.Error("metric labels should differ")
	}
}

func TestGroupsAblationMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	opt := quick()
	opt.Txns = 150
	opt.MeasureFrom = 30
	e, err := ByID("groups", opt)
	if err != nil {
		t.Fatal(err)
	}
	// Restart ratio should not increase as the partition refines.
	label := protocol.Grouped.String()
	prev := -1.0
	for i := len(e.Points) - 1; i >= 0; i-- { // from g=n down to g=1
		rr := e.Points[i].Runs[label].RestartRatio
		if prev >= 0 && rr+0.15 < prev {
			t.Errorf("g=%g restarts %.3g fell below finer partition's %.3g",
				e.Points[i].X, rr, prev)
		}
		if rr > prev {
			prev = rr
		}
	}
}

func TestCachingAblationRuns(t *testing.T) {
	opt := quick()
	opt.Txns = 60
	opt.MeasureFrom = 10
	e, err := ByID("caching", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Labels) != 1 || e.Labels[0] != protocol.FMatrix.String() {
		t.Errorf("labels = %v", e.Labels)
	}
	// T=0 must have zero cache hits; larger T must have some.
	if e.Points[0].Runs[e.Labels[0]].CacheHits != 0 {
		t.Error("T=0 should not hit the cache")
	}
	last := e.Points[len(e.Points)-1]
	if last.Runs[e.Labels[0]].CacheHits == 0 {
		t.Error("largest T should produce cache hits")
	}
}

func TestDeltaAnalysis(t *testing.T) {
	points, err := DeltaAnalysis(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	for i, p := range points {
		if p.MeanChangedEntries <= 0 || p.MeanDeltaControlBits <= 0 {
			t.Errorf("point %d empty: %+v", i, p)
		}
		if i > 0 && p.ControlRatio >= points[i-1].ControlRatio {
			t.Errorf("delta savings must grow as the commit rate falls: %v then %v",
				points[i-1].ControlRatio, p.ControlRatio)
		}
		if p.TotalRatio >= 1 {
			t.Errorf("a delta cycle should never exceed a full cycle at these rates: %+v", p)
		}
	}
	// At the paper's default rate the control delta should be well under
	// the full matrix.
	if points[2].ControlRatio > 0.5 {
		t.Errorf("default-rate control ratio = %v, expected < 0.5", points[2].ControlRatio)
	}
	tbl := DeltaTable(points)
	if !strings.Contains(tbl, "Incremental") || len(strings.Split(tbl, "\n")) < 7 {
		t.Errorf("table rendering:\n%s", tbl)
	}
}

func TestCheckShapeDetectsViolations(t *testing.T) {
	// Construct a fabricated experiment violating every ordering.
	mk := func(resp, rr float64) Metrics { return Metrics{ResponseMean: resp, RestartRatio: rr} }
	e := &Experiment{
		ID:     "fab",
		Labels: []string{"Datacycle", "R-Matrix", "F-Matrix", "F-Matrix-No"},
		Points: []Point{{
			X: 1,
			Runs: map[string]Metrics{
				"Datacycle":   mk(1, 0),
				"R-Matrix":    mk(10, 5),
				"F-Matrix":    mk(100, 50),
				"F-Matrix-No": mk(1000, 50),
			},
		}},
	}
	v := e.CheckShape(0.05)
	if len(v) != 5 {
		t.Errorf("violations = %d (%v), want 5", len(v), v)
	}
	// Non-four-algorithm experiments are skipped.
	e2 := &Experiment{Labels: []string{"F-Matrix"}}
	if v := e2.CheckShape(0.05); v != nil {
		t.Error("partial experiments should not be shape-checked")
	}
}
