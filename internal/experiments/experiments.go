// Package experiments reproduces the paper's evaluation (Section 4):
// one parameter sweep per figure, each run over the four algorithms
// (Datacycle, R-Matrix, F-Matrix and the ideal F-Matrix-No), reporting
// mean transaction response times in bit-units and transaction restart
// ratios — the two metrics the paper plots. Two ablations beyond the
// paper cover the grouped-matrix spectrum of Section 3.2.2 and the
// client-caching extension of Section 3.3.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/sim"
	"broadcastcc/internal/stats"
)

// Metrics are the measurements extracted from one simulation run.
type Metrics struct {
	ResponseMean float64        // mean response time, bit-units
	ResponseCI   stats.Interval // 95% confidence interval
	RestartRatio float64        // restarts per committed transaction
	Cycles       int64
	Commits      int64
	CacheHits    int64
	// AccessMean is the mean per-transaction broadcast wait in
	// bit-units (the paper's access time).
	AccessMean float64
	// TuningMean is the mean per-transaction frames listened (the
	// paper's tuning time); 0 unless an airsched program ran.
	TuningMean float64
	// OffScale marks a run that blew past the MaxTime guard — the
	// paper's "outside the limits of the Y-axis" Datacycle points.
	// ResponseMean and RestartRatio are +Inf.
	OffScale bool
	// Obs is the run's final metrics-registry snapshot (sim.Result.Obs):
	// the same counter names a live server/client exposes on /metrics.
	// Deterministic per config, so sweep tables embedding it remain
	// byte-identical at any parallelism.
	Obs obs.Snapshot
}

// Point is one x-value of a sweep with the metrics of every algorithm
// (keyed by label, e.g. "F-Matrix").
type Point struct {
	X    float64
	Runs map[string]Metrics
}

// Experiment is a completed sweep, directly mappable to one of the
// paper's figures.
type Experiment struct {
	ID     string // the figure table's id
	Title  string
	XLabel string
	Labels []string // series order for rendering
	Points []Point
}

// Options control a reproduction run.
type Options struct {
	// Txns is the number of client transactions per run (default 1000,
	// as in the paper; lower it for quick runs).
	Txns int
	// MeasureFrom discards warmup transactions (default Txns/2).
	MeasureFrom int
	// Seed seeds every run (default 1).
	Seed int64
	// Algorithms overrides the default four-protocol comparison.
	Algorithms []protocol.Algorithm
	// MaxTime guards each run against pathological blowup, in bit-units
	// (0 = none).
	MaxTime float64
	// Parallelism bounds how many simulations a sweep runs concurrently
	// (each (x, algorithm) run is independent). 0 defaults to
	// runtime.GOMAXPROCS(0); 1 forces sequential execution. Results are
	// bit-identical at any parallelism: every run draws from its own
	// RNG seeded purely by its configuration, and points are assembled
	// in sweep order.
	Parallelism int
	// Progress, when set, receives one line per completed run. The
	// harness serializes calls, but in parallel mode lines arrive in
	// completion order rather than sweep order.
	Progress func(format string, args ...any)
}

func (o Options) normalized() Options {
	if o.Txns == 0 {
		o.Txns = 1000
	}
	if o.MeasureFrom == 0 {
		o.MeasureFrom = o.Txns / 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = []protocol.Algorithm{
			protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo,
		}
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	return o
}

func (o Options) baseConfig(alg protocol.Algorithm) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Algorithm = alg
	cfg.ClientTxns = o.Txns
	cfg.MeasureFrom = o.MeasureFrom
	cfg.Seed = o.Seed
	cfg.MaxTime = o.MaxTime
	return cfg
}

func metricsOf(r *sim.Result) Metrics {
	return Metrics{
		ResponseMean: r.ResponseTime.Mean(),
		ResponseCI:   r.ResponseCI,
		RestartRatio: r.RestartRatio,
		Cycles:       r.CyclesSimulated,
		Commits:      r.ServerCommits,
		CacheHits:    r.CacheHits,
		AccessMean:   r.AccessTime.Mean(),
		TuningMean:   r.TuningFrames.Mean(),
		Obs:          r.Obs,
	}
}

// variant is one series of a sweep: a label and a config mutation
// applied on top of the per-x mutation. The classic sweeps derive one
// variant per algorithm; the airsched sweeps compare broadcast-program
// configurations under a single algorithm.
type variant struct {
	label string
	apply func(*sim.Config, float64)
}

// sweepRun is one independent (x, variant) simulation of a sweep.
type sweepRun struct {
	vi int
	x  float64
}

// runOne executes one sweep run to a Metrics value. Every run owns an
// RNG derived purely from its configuration seed, so the result is a
// deterministic function of (Options, id, run) regardless of which
// worker executes it or in what order.
func runOne(opt Options, id string, rn sweepRun, variants []variant, progress func(format string, args ...any)) (Metrics, error) {
	v := variants[rn.vi]
	cfg := opt.baseConfig(opt.Algorithms[0])
	v.apply(&cfg, rn.x)
	r, err := sim.Run(cfg)
	switch {
	case errors.Is(err, sim.ErrMaxTime):
		progress("figure %s: %s x=%g off-scale (%v)", id, v.label, rn.x, err)
		return Metrics{ResponseMean: math.Inf(1), RestartRatio: math.Inf(1), OffScale: true}, nil
	case err != nil:
		return Metrics{}, fmt.Errorf("experiment %s, %v at x=%v: %w", id, v.label, rn.x, err)
	}
	progress("figure %s: %s x=%g response=%.3g restarts=%.3g",
		id, v.label, rn.x, r.ResponseTime.Mean(), r.RestartRatio)
	return metricsOf(r), nil
}

// variantSweep runs one experiment: for each x, run every variant. Runs
// fan out across a worker pool bounded by Options.Parallelism; results
// are assembled in sweep order, so the experiment table is
// byte-identical to a sequential sweep. On error the pool stops
// dispatching and the earliest run's error (in sweep order) is returned
// — the same one a sequential sweep would hit.
func variantSweep(opt Options, f *Figure, variants []variant) (*Experiment, error) {
	exp := &Experiment{ID: f.ID, Title: f.title, XLabel: f.xlabel}
	for _, v := range variants {
		exp.Labels = append(exp.Labels, v.label)
	}
	runs := make([]sweepRun, 0, len(f.xs)*len(variants))
	for _, x := range f.xs {
		for vi := range variants {
			runs = append(runs, sweepRun{vi: vi, x: x})
		}
	}
	results := make([]Metrics, len(runs))
	errs := make([]error, len(runs))

	// Progress callbacks may not be goroutine-safe; serialize them.
	var progressMu sync.Mutex
	progress := func(format string, args ...any) {
		progressMu.Lock()
		defer progressMu.Unlock()
		opt.Progress(format, args...)
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(opt.Parallelism, len(runs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) || failed.Load() {
					return
				}
				m, err := runOne(opt, f.ID, runs[i], variants, progress)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = m
			}
		}()
	}
	wg.Wait()
	// Workers claim indices in sweep order, so any run a sequential
	// sweep would have reached before the first failure has either
	// completed or recorded its own error; the earliest recorded error
	// is the sequential one. One worker is the sequential sweep.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for pi, x := range f.xs {
		pt := Point{X: x, Runs: map[string]Metrics{}}
		for vi, v := range variants {
			pt.Runs[v.label] = results[pi*len(variants)+vi]
		}
		exp.Points = append(exp.Points, pt)
	}
	return exp, nil
}

// Metric selects which measurement a rendering shows.
type Metric int

// Renderable metrics.
const (
	// ResponseTime renders mean response times (bit-units).
	ResponseTime Metric = iota
	// RestartRatio renders restarts per committed transaction.
	RestartRatio
	// AccessTime renders mean per-transaction broadcast wait
	// (bit-units).
	AccessTime
	// TuningFrames renders mean per-transaction frames listened.
	TuningFrames
)

func (m Metric) label() string {
	switch m {
	case RestartRatio:
		return "restart ratio"
	case AccessTime:
		return "access time (bit-units)"
	case TuningFrames:
		return "tuning time (frames listened)"
	default:
		return "response time (bit-units)"
	}
}

func (m Metric) value(x Metrics) float64 {
	switch m {
	case RestartRatio:
		return x.RestartRatio
	case AccessTime:
		return x.AccessMean
	case TuningFrames:
		return x.TuningMean
	default:
		return x.ResponseMean
	}
}

// Table renders the experiment as an aligned text table of the given
// metric, one row per x value and one column per algorithm.
func (e *Experiment) Table(m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s [%s]\n", e.ID, e.Title, m.label())
	header := append([]string{e.XLabel}, e.Labels...)
	rows := [][]string{header}
	for _, pt := range e.Points {
		row := []string{fmt.Sprintf("%g", pt.X)}
		for _, lbl := range e.Labels {
			if pt.Runs[lbl].OffScale {
				row = append(row, "off-scale")
			} else {
				row = append(row, fmt.Sprintf("%.4g", m.value(pt.Runs[lbl])))
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteCSV emits the experiment as CSV with both metrics per algorithm.
func (e *Experiment) WriteCSV(w io.Writer) error {
	cols := []string{"x"}
	for _, lbl := range e.Labels {
		cols = append(cols, lbl+"_response", lbl+"_restart_ratio")
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, pt := range e.Points {
		row := []string{fmt.Sprintf("%g", pt.X)}
		for _, lbl := range e.Labels {
			m := pt.Runs[lbl]
			row = append(row, fmt.Sprintf("%g", m.ResponseMean), fmt.Sprintf("%g", m.RestartRatio))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// seriesOf extracts (x, metric) pairs for one algorithm label.
func (e *Experiment) seriesOf(label string, m Metric) ([]float64, []float64, error) {
	found := false
	for _, l := range e.Labels {
		if l == label {
			found = true
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("experiments: no series %q in figure %s (have %v)", label, e.ID, e.Labels)
	}
	xs := make([]float64, 0, len(e.Points))
	ys := make([]float64, 0, len(e.Points))
	for _, pt := range e.Points {
		xs = append(xs, pt.X)
		ys = append(ys, m.value(pt.Runs[label]))
	}
	return xs, ys, nil
}

// Shape checks — the qualitative claims of Section 4.7, used by tests
// and by the EXPERIMENTS.md generator to flag divergence from the paper.

// ShapeViolation describes one qualitative disagreement with the paper.
type ShapeViolation struct {
	Figure string
	X      float64
	Detail string
}

// CheckShape verifies the paper's qualitative orderings on a completed
// four-algorithm experiment: Datacycle ≥ R-Matrix ≥ F-Matrix in
// response time and restart ratio at every x (with slack at the
// low-contention end where the paper reports the protocols as
// indistinguishable), and F-Matrix-No ≤ F-Matrix. The slack fraction
// tolerates sampling noise when the absolute numbers are close.
func (e *Experiment) CheckShape(slack float64) []ShapeViolation {
	var out []ShapeViolation
	need := []string{protocol.Datacycle.String(), protocol.RMatrix.String(), protocol.FMatrix.String(), protocol.FMatrixNo.String()}
	have := map[string]bool{}
	for _, l := range e.Labels {
		have[l] = true
	}
	for _, n := range need {
		if !have[n] {
			return nil // not a four-algorithm comparison
		}
	}
	geq := func(a, b float64) bool { return a >= b*(1-slack) }
	for _, pt := range e.Points {
		d := pt.Runs[protocol.Datacycle.String()]
		r := pt.Runs[protocol.RMatrix.String()]
		f := pt.Runs[protocol.FMatrix.String()]
		fno := pt.Runs[protocol.FMatrixNo.String()]
		if !geq(d.ResponseMean, r.ResponseMean) {
			out = append(out, ShapeViolation{e.ID, pt.X, fmt.Sprintf("Datacycle response %.4g < R-Matrix %.4g", d.ResponseMean, r.ResponseMean)})
		}
		if !geq(r.ResponseMean, f.ResponseMean) {
			out = append(out, ShapeViolation{e.ID, pt.X, fmt.Sprintf("R-Matrix response %.4g < F-Matrix %.4g", r.ResponseMean, f.ResponseMean)})
		}
		if !geq(f.ResponseMean, fno.ResponseMean) {
			out = append(out, ShapeViolation{e.ID, pt.X, fmt.Sprintf("F-Matrix response %.4g < F-Matrix-No %.4g", f.ResponseMean, fno.ResponseMean)})
		}
		if d.RestartRatio+slack < r.RestartRatio {
			out = append(out, ShapeViolation{e.ID, pt.X, fmt.Sprintf("Datacycle restarts %.4g < R-Matrix %.4g", d.RestartRatio, r.RestartRatio)})
		}
		if r.RestartRatio+slack < f.RestartRatio {
			out = append(out, ShapeViolation{e.ID, pt.X, fmt.Sprintf("R-Matrix restarts %.4g < F-Matrix %.4g", r.RestartRatio, f.RestartRatio)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}
