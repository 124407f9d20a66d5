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
	ID     string // "2a", "3b", ...
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
func variantSweep(opt Options, id, title, xlabel string, xs []float64, variants []variant) (*Experiment, error) {
	exp := &Experiment{ID: id, Title: title, XLabel: xlabel}
	for _, v := range variants {
		exp.Labels = append(exp.Labels, v.label)
	}
	runs := make([]sweepRun, 0, len(xs)*len(variants))
	for _, x := range xs {
		for vi := range variants {
			runs = append(runs, sweepRun{vi: vi, x: x})
		}
	}
	results := make([]Metrics, len(runs))
	errs := make([]error, len(runs))

	if workers := min(opt.Parallelism, len(runs)); workers <= 1 {
		for i, rn := range runs {
			m, err := runOne(opt, id, rn, variants, opt.Progress)
			if err != nil {
				return nil, err
			}
			results[i] = m
		}
	} else {
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
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(runs) || failed.Load() {
						return
					}
					m, err := runOne(opt, id, runs[i], variants, progress)
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
		// completed or recorded its own error; the earliest recorded
		// error is the sequential one.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	for pi, x := range xs {
		pt := Point{X: x, Runs: map[string]Metrics{}}
		for vi, v := range variants {
			pt.Runs[v.label] = results[pi*len(variants)+vi]
		}
		exp.Points = append(exp.Points, pt)
	}
	return exp, nil
}

// sweep runs the classic per-algorithm comparison: one variant per
// configured algorithm, each applying the per-x mutation.
func sweep(opt Options, id, title, xlabel string, xs []float64, apply func(*sim.Config, float64)) (*Experiment, error) {
	opt = opt.normalized()
	variants := make([]variant, 0, len(opt.Algorithms))
	for _, alg := range opt.Algorithms {
		alg := alg
		variants = append(variants, variant{
			label: alg.String(),
			apply: func(cfg *sim.Config, x float64) {
				cfg.Algorithm = alg
				apply(cfg, x)
			},
		})
	}
	return variantSweep(opt, id, title, xlabel, xs, variants)
}

// Figure2a sweeps client transaction length (2..10), reporting response
// times — the paper's Figure 2(a).
func Figure2a(opt Options) (*Experiment, error) {
	return sweep(opt, "2a", "Response time vs client transaction length",
		"client transaction length (reads)",
		[]float64{2, 4, 6, 8, 10},
		func(cfg *sim.Config, x float64) { cfg.ClientTxnLength = int(x) })
}

// Figure2b is the same sweep as Figure2a viewed through restart ratios —
// the paper's Figure 2(b). (Each figure runs its own sweep so the two
// can be generated independently.)
func Figure2b(opt Options) (*Experiment, error) {
	e, err := sweep(opt, "2b", "Restart ratio vs client transaction length",
		"client transaction length (reads)",
		[]float64{2, 4, 6, 8, 10},
		func(cfg *sim.Config, x float64) { cfg.ClientTxnLength = int(x) })
	return e, err
}

// Figure3a sweeps server transaction length — the paper's Figure 3(a).
func Figure3a(opt Options) (*Experiment, error) {
	return sweep(opt, "3a", "Response time vs server transaction length",
		"server transaction length (operations)",
		[]float64{2, 4, 8, 12, 16},
		func(cfg *sim.Config, x float64) { cfg.ServerTxnLength = int(x) })
}

// Figure3b sweeps the server inter-transaction time; the transaction
// *rate* decreases left to right exactly as in the paper's Figure 3(b).
func Figure3b(opt Options) (*Experiment, error) {
	return sweep(opt, "3b", "Response time vs server inter-transaction time",
		"server inter-transaction time (bit-units; rate decreases rightward)",
		[]float64{62500, 125000, 250000, 500000, 1000000},
		func(cfg *sim.Config, x float64) { cfg.ServerTxnInterval = x })
}

// Figure4a sweeps the database size — the paper's Figure 4(a).
func Figure4a(opt Options) (*Experiment, error) {
	return sweep(opt, "4a", "Response time vs number of objects",
		"objects in database",
		[]float64{100, 200, 300, 400, 500},
		func(cfg *sim.Config, x float64) { cfg.Objects = int(x) })
}

// Figure4b sweeps the object size — the paper's Figure 4(b).
func Figure4b(opt Options) (*Experiment, error) {
	return sweep(opt, "4b", "Response time vs object size",
		"object size (bits)",
		[]float64{2048, 4096, 8192, 16384, 32768},
		func(cfg *sim.Config, x float64) { cfg.ObjectBits = int64(x) })
}

// GroupsAblation sweeps the grouped-matrix partition count between the
// Datacycle-like single group and full F-Matrix — the Section 3.2.2
// spectrum the paper describes but does not plot.
func GroupsAblation(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	opt.Algorithms = []protocol.Algorithm{protocol.Grouped}
	e, err := sweep(opt, "groups", "Response time vs control-matrix group count (g=1 ≈ Datacycle-style vector, g=n = F-Matrix)",
		"groups g",
		[]float64{1, 5, 15, 60, 150, 300},
		func(cfg *sim.Config, x float64) {
			cfg.Groups = int(x)
			// Higher contention so grouping effects show.
			cfg.ClientTxnLength = 8
		})
	return e, err
}

// CachingAblation sweeps the client currency bound T (in cycles) under
// F-Matrix — the Section 3.3 extension the paper defers to future work.
func CachingAblation(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	opt.Algorithms = []protocol.Algorithm{protocol.FMatrix}
	return sweep(opt, "caching", "Response time vs client cache currency bound",
		"currency bound T (cycles; 0 = no cache)",
		[]float64{0, 1, 2, 4, 8, 16},
		func(cfg *sim.Config, x float64) {
			cfg.CacheCurrency = int64(x)
			cfg.Objects = 100 // hotter object set so the cache can hit
		})
}

// MultiDiskAblation sweeps the hot-disk speed of a two-disk broadcast
// program under a hot-skewed client (beyond the paper, which restricts
// itself to single-speed disks): 30 hot objects out of 300, 80% of
// client reads hot.
func MultiDiskAblation(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	return sweep(opt, "disks", "Response time vs hot-disk speed (two-disk broadcast program, 80% hot access)",
		"hot disk relative speed (1 = the paper's flat disk)",
		[]float64{1, 2, 3, 5, 9},
		func(cfg *sim.Config, x float64) {
			cfg.HotSetSize = 30
			cfg.HotAccessProb = 0.8
			if x > 1 {
				cfg.HotDiskSpeed = int(x) // cold set 270 divisible by 2,3,5,9
			}
		})
}

// ClientUpdateAblation sweeps the fraction of client transactions that
// are updates committed over the uplink (the paper's future-work
// direction). Reported response times are for the read-only
// transactions; the update metrics travel in the Metrics extras.
func ClientUpdateAblation(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	return sweep(opt, "updates", "Response time vs client update fraction (uplink commits)",
		"fraction of client transactions that update",
		[]float64{0, 0.1, 0.25, 0.5},
		func(cfg *sim.Config, x float64) {
			cfg.ClientUpdateProb = x
			cfg.ClientTxnWrites = 1
			cfg.UplinkLatency = 4096
		})
}

// ClientCountAblation sweeps the number of concurrent read-only clients
// — the paper simulates one on the grounds that read-only performance is
// client-count independent; this sweep verifies that the per-client
// response times stay flat.
func ClientCountAblation(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	return sweep(opt, "clients", "Response time vs concurrent clients (read-only; should be flat)",
		"concurrent clients",
		[]float64{1, 2, 4, 8},
		func(cfg *sim.Config, x float64) {
			cfg.Clients = int(x)
			// Keep total work comparable: measured txns per client shrink.
			cfg.ClientTxns = max(cfg.ClientTxns/int(x), 40)
			cfg.MeasureFrom = cfg.ClientTxns / 4
		})
}

// FaultAblation sweeps the per-cycle frame-loss rate under a light doze
// load (2% doze-window starts, 2 cycles each) — the lossy-air
// experiment the paper's mobility premise implies but never runs. A
// missed cycle carries no data, so reads wait for the object's next
// received transmission; transactions stretch across more cycles, see
// more concurrent updates, and abort more. The plotted metric is the
// restart ratio per protocol (the ideal F-Matrix-No is excluded: it
// broadcasts no control information and could not be validated over a
// lossy air).
func FaultAblation(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	opt.Algorithms = []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix}
	return sweep(opt, "faults", "Restart ratio vs per-cycle frame-loss rate (plus 2% doze windows of 2 cycles)",
		"per-cycle frame loss probability",
		[]float64{0, 0.1, 0.2, 0.3, 0.4},
		func(cfg *sim.Config, x float64) {
			cfg.FaultLoss = x
			cfg.FaultDoze = 0.02
			cfg.FaultDozeLen = 2
			cfg.FaultSeed = cfg.Seed
		})
}

// airVariants are the two broadcast-program configurations the airsched
// sweeps compare under F-Matrix: the paper's flat disk, and a 3-disk
// program with a (1,8) air index and selective tuning.
func airVariants(disks, indexM int, configure func(*sim.Config, float64)) []variant {
	return []variant{
		{label: "flat", apply: func(cfg *sim.Config, x float64) {
			cfg.Algorithm = protocol.FMatrix
			cfg.Disks = 1
			configure(cfg, x)
		}},
		{label: "airsched", apply: func(cfg *sim.Config, x float64) {
			cfg.Algorithm = protocol.FMatrix
			cfg.Disks = disks
			cfg.IndexM = indexM
			configure(cfg, x)
		}},
	}
}

// AirschedSweep sweeps client access skew θ, comparing the flat disk
// against a 3-disk, (1,8)-indexed airsched program: tuning time (frames
// listened) should collapse while access time stays equal or better at
// high skew. Runs under F-Matrix with a smaller, hotter database so the
// multi-disk effects show within quick runs.
func AirschedSweep(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	opt.Algorithms = []protocol.Algorithm{protocol.FMatrix}
	return variantSweep(opt, "airsched",
		"Tuning time vs access skew (flat disk vs 3-disk + (1,8) air index)",
		"zipf skew θ",
		[]float64{0.25, 0.5, 0.75, 0.95},
		airVariants(3, 8, func(cfg *sim.Config, x float64) {
			cfg.Objects = 60
			cfg.ZipfTheta = x
		}))
}

// AirschedDisksSweep sweeps the disk count of the broadcast program at
// fixed high skew (θ=0.95), with and without the (1,8) air index.
func AirschedDisksSweep(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	opt.Algorithms = []protocol.Algorithm{protocol.FMatrix}
	configure := func(cfg *sim.Config, x float64) {
		cfg.Objects = 60
		cfg.ZipfTheta = 0.95
		cfg.Disks = int(x)
	}
	return variantSweep(opt, "airdisks",
		"Tuning time vs broadcast disk count (zipf θ=0.95, F-Matrix)",
		"broadcast disks",
		[]float64{1, 2, 3, 4},
		[]variant{
			{label: "unindexed", apply: func(cfg *sim.Config, x float64) {
				cfg.Algorithm = protocol.FMatrix
				configure(cfg, x)
			}},
			{label: "indexed", apply: func(cfg *sim.Config, x float64) {
				cfg.Algorithm = protocol.FMatrix
				configure(cfg, x)
				cfg.IndexM = 8
			}},
		})
}

// All runs every figure of the paper plus the two ablations. Figures
// run in sequence, but each figure's sweep fans its independent
// simulation runs out across the Options.Parallelism worker pool, so
// All saturates the machine while producing tables byte-identical to a
// fully sequential reproduction.
func All(opt Options) ([]*Experiment, error) {
	type gen struct {
		name string
		f    func(Options) (*Experiment, error)
	}
	gens := []gen{
		{"2a", Figure2a}, {"2b", Figure2b}, {"3a", Figure3a},
		{"3b", Figure3b}, {"4a", Figure4a}, {"4b", Figure4b},
		{"groups", GroupsAblation}, {"caching", CachingAblation},
		{"disks", MultiDiskAblation}, {"updates", ClientUpdateAblation},
		{"clients", ClientCountAblation}, {"faults", FaultAblation},
		{"airsched", AirschedSweep}, {"airdisks", AirschedDisksSweep},
	}
	var out []*Experiment
	for _, g := range gens {
		e, err := g.f(opt)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

// ByID dispatches a figure by its identifier.
func ByID(id string, opt Options) (*Experiment, error) {
	switch strings.ToLower(id) {
	case "2a":
		return Figure2a(opt)
	case "2b":
		return Figure2b(opt)
	case "3a":
		return Figure3a(opt)
	case "3b":
		return Figure3b(opt)
	case "4a":
		return Figure4a(opt)
	case "4b":
		return Figure4b(opt)
	case "groups":
		return GroupsAblation(opt)
	case "caching":
		return CachingAblation(opt)
	case "disks":
		return MultiDiskAblation(opt)
	case "updates":
		return ClientUpdateAblation(opt)
	case "clients":
		return ClientCountAblation(opt)
	case "faults":
		return FaultAblation(opt)
	case "airsched":
		return AirschedSweep(opt)
	case "airdisks":
		return AirschedDisksSweep(opt)
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q (want 2a, 2b, 3a, 3b, 4a, 4b, groups, caching, disks, updates, clients, faults, airsched, airdisks)", id)
	}
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

// Metric picks the measurement the paper plots for this figure.
func (e *Experiment) Metric() Metric {
	switch e.ID {
	case "2b", "faults":
		return RestartRatio
	case "airsched", "airdisks":
		return TuningFrames
	default:
		return ResponseTime
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

// SeriesOf extracts (x, metric) pairs for one algorithm label.
func (e *Experiment) SeriesOf(label string, m Metric) ([]float64, []float64, error) {
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
