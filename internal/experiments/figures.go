package experiments

import (
	"fmt"
	"strings"

	"broadcastcc/internal/protocol"
	"broadcastcc/internal/sim"
)

// Figure is one row of the figure table below — everything the harness
// and bcbench know about a figure id. A row is either a sweep (x-values
// and a config mutation, run over the algorithms or over explicit
// variants into an Experiment) or a study (its own run function).
type Figure struct {
	// ID is the name -figure, ByID and BENCH_<id>.json know the figure by.
	ID string
	// onRequest keeps the figure out of the "all" selection.
	onRequest bool

	// A sweep: metric is the measurement the paper plots for it (what
	// its table shows), restartsToo adds the restart-ratio table,
	// algorithms replaces Options.Algorithms, and the series are one per
	// algorithm, each applying apply — or variants, when set.
	title, xlabel string
	xs            []float64
	metric        Metric
	restartsToo   bool
	algorithms    []protocol.Algorithm
	apply         func(*sim.Config, float64)
	variants      []variant

	// A study runs at its zero config (paper scale) and renders its own
	// table and BENCH projections. clients is bcbench's -scale-clients,
	// the one knob a study takes from the command line.
	study func(opt Options, clients []int) (table string, benches []BenchExperiment, err error)
}

// Ids of the studies that project themselves into the BENCH schema,
// named so that the row and the projection share one spelling.
const (
	idGrouped = "grouped"
	idQuasi   = "quasi"
	idShard   = "shard"
	idWire    = "wire"
	idScale   = "scale"
)

// figures is the figure table, in the order "all" runs and prints it:
// the studies (each introduced at the top of its own file), then the
// sweeps. It is the one place a figure id is written down.
var figures = []Figure{
	{ID: "delta", study: func(opt Options, _ []int) (string, []BenchExperiment, error) {
		points, err := DeltaAnalysis(opt)
		if err != nil {
			return "", nil, err
		}
		return DeltaTable(points), nil, nil
	}},
	{ID: idGrouped, study: func(opt Options, _ []int) (string, []BenchExperiment, error) {
		points, err := GroupedBandwidth(opt, GroupedConfig{})
		if err != nil {
			return "", nil, err
		}
		return GroupedTable(points), []BenchExperiment{GroupedBench(points)}, nil
	}},
	{ID: idQuasi, study: func(opt Options, _ []int) (string, []BenchExperiment, error) {
		points, err := QuasiCurrency(opt, QuasiConfig{})
		if err != nil {
			return "", nil, err
		}
		return QuasiTable(points), []BenchExperiment{QuasiBench(points)}, nil
	}},
	{ID: idShard, study: func(opt Options, _ []int) (string, []BenchExperiment, error) {
		points, err := ShardStudy(opt, ShardConfig{})
		if err != nil {
			return "", nil, err
		}
		return ShardTable(points), []BenchExperiment{ShardBench(points)}, nil
	}},
	{ID: idWire, study: func(opt Options, _ []int) (string, []BenchExperiment, error) {
		analysis, err := WireStudy(opt, WireConfig{})
		if err != nil {
			return "", nil, err
		}
		scaling, fec := WireBench(analysis)
		return WireTable(analysis), []BenchExperiment{scaling, fec}, nil
	}},

	// The paper's Figure 2(a): client transaction length 2..10,
	// response times. The paper discusses both metrics for Figure 2.
	{ID: "2a", restartsToo: true,
		title:  "Response time vs client transaction length",
		xlabel: "client transaction length (reads)",
		xs:     []float64{2, 4, 6, 8, 10},
		apply:  func(cfg *sim.Config, x float64) { cfg.ClientTxnLength = int(x) }},
	// Figure 2(b): the same sweep viewed through restart ratios. (Each
	// figure runs its own sweep so the two can be generated
	// independently.)
	{ID: "2b", metric: RestartRatio,
		title:  "Restart ratio vs client transaction length",
		xlabel: "client transaction length (reads)",
		xs:     []float64{2, 4, 6, 8, 10},
		apply:  func(cfg *sim.Config, x float64) { cfg.ClientTxnLength = int(x) }},
	{ID: "3a",
		title:  "Response time vs server transaction length",
		xlabel: "server transaction length (operations)",
		xs:     []float64{2, 4, 8, 12, 16},
		apply:  func(cfg *sim.Config, x float64) { cfg.ServerTxnLength = int(x) }},
	// Figure 3(b): server inter-transaction time; the transaction *rate*
	// decreases left to right exactly as in the paper.
	{ID: "3b",
		title:  "Response time vs server inter-transaction time",
		xlabel: "server inter-transaction time (bit-units; rate decreases rightward)",
		xs:     []float64{62500, 125000, 250000, 500000, 1000000},
		apply:  func(cfg *sim.Config, x float64) { cfg.ServerTxnInterval = x }},
	{ID: "4a",
		title:  "Response time vs number of objects",
		xlabel: "objects in database",
		xs:     []float64{100, 200, 300, 400, 500},
		apply:  func(cfg *sim.Config, x float64) { cfg.Objects = int(x) }},
	{ID: "4b",
		title:  "Response time vs object size",
		xlabel: "object size (bits)",
		xs:     []float64{2048, 4096, 8192, 16384, 32768},
		apply:  func(cfg *sim.Config, x float64) { cfg.ObjectBits = int64(x) }},
	// The grouped-matrix partition count between the Datacycle-like
	// single group and full F-Matrix — the Section 3.2.2 spectrum the
	// paper describes but does not plot.
	{ID: "groups", algorithms: []protocol.Algorithm{protocol.Grouped},
		title:  "Response time vs control-matrix group count (g=1 ≈ Datacycle-style vector, g=n = F-Matrix)",
		xlabel: "groups g",
		xs:     []float64{1, 5, 15, 60, 150, 300},
		apply: func(cfg *sim.Config, x float64) {
			cfg.Groups = int(x)
			// Higher contention so grouping effects show.
			cfg.ClientTxnLength = 8
		}},
	// The client currency bound T (in cycles) under F-Matrix — the
	// Section 3.3 extension the paper defers to future work.
	{ID: "caching", algorithms: []protocol.Algorithm{protocol.FMatrix},
		title:  "Response time vs client cache currency bound",
		xlabel: "currency bound T (cycles; 0 = no cache)",
		xs:     []float64{0, 1, 2, 4, 8, 16},
		apply: func(cfg *sim.Config, x float64) {
			cfg.CacheCurrency = int64(x)
			cfg.Objects = 100 // hotter object set so the cache can hit
		}},
	// The disk count of the airsched broadcast program under a
	// Zipf-skewed client (beyond the paper, which restricts itself to
	// single-speed disks): hot objects spin on faster disks, no index.
	{ID: "disks",
		title:  "Response time vs broadcast disks (airsched program, zipf θ=0.95)",
		xlabel: "broadcast disks (1 = the paper's flat disk)",
		xs:     []float64{1, 2, 3, 4},
		apply: func(cfg *sim.Config, x float64) {
			cfg.ZipfTheta = 0.95
			cfg.Disks = int(x)
		}},
	// The fraction of client transactions that are updates committed
	// over the uplink (the paper's future-work direction). Reported
	// response times are for the read-only transactions; the update
	// metrics travel in the Metrics extras.
	{ID: "updates",
		title:  "Response time vs client update fraction (uplink commits)",
		xlabel: "fraction of client transactions that update",
		xs:     []float64{0, 0.1, 0.25, 0.5},
		apply: func(cfg *sim.Config, x float64) {
			cfg.ClientUpdateProb = x
			cfg.ClientTxnWrites = 1
			cfg.UplinkLatency = 4096
		}},
	// The number of concurrent read-only clients — the paper simulates
	// one on the grounds that read-only performance is client-count
	// independent; this sweep verifies that the per-client response
	// times stay flat.
	{ID: "clients",
		title:  "Response time vs concurrent clients (read-only; should be flat)",
		xlabel: "concurrent clients",
		xs:     []float64{1, 2, 4, 8},
		apply: func(cfg *sim.Config, x float64) {
			cfg.Clients = int(x)
			// Keep total work comparable: measured txns per client shrink.
			cfg.ClientTxns = max(cfg.ClientTxns/int(x), 40)
			cfg.MeasureFrom = cfg.ClientTxns / 4
		}},
	// The per-cycle frame-loss rate under a light doze load (2%
	// doze-window starts, 2 cycles each) — the lossy-air experiment the
	// paper's mobility premise implies but never runs. A missed cycle
	// carries no data, so reads wait for the object's next received
	// transmission; transactions stretch across more cycles, see more
	// concurrent updates, and abort more. The plotted metric is the
	// restart ratio per protocol (the ideal F-Matrix-No is excluded: it
	// broadcasts no control information and could not be validated over
	// a lossy air).
	{ID: "faults", metric: RestartRatio,
		algorithms: []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix},
		title:      "Restart ratio vs per-cycle frame-loss rate (plus 2% doze windows of 2 cycles)",
		xlabel:     "per-cycle frame loss probability",
		xs:         []float64{0, 0.1, 0.2, 0.3, 0.4},
		apply: func(cfg *sim.Config, x float64) {
			cfg.FaultLoss = x
			cfg.FaultDoze = 0.02
			cfg.FaultDozeLen = 2
			cfg.FaultSeed = cfg.Seed
		}},
	// Client access skew θ, comparing the flat disk against a 3-disk,
	// (1,8)-indexed airsched program under F-Matrix: tuning time (frames
	// listened) should collapse while access time stays equal or better
	// at high skew.
	{ID: "airsched", metric: TuningFrames,
		title:  "Tuning time vs access skew (flat disk vs 3-disk + (1,8) air index)",
		xlabel: "zipf skew θ",
		xs:     []float64{0.25, 0.5, 0.75, 0.95},
		variants: []variant{
			airVariant("flat", func(cfg *sim.Config, x float64) {
				cfg.Disks = 1
				cfg.ZipfTheta = x
			}),
			airVariant("airsched", func(cfg *sim.Config, x float64) {
				cfg.Disks = 3
				cfg.IndexM = 8
				cfg.ZipfTheta = x
			}),
		}},
	// The disk count of the broadcast program at fixed high skew
	// (θ=0.95), with and without the (1,8) air index.
	{ID: "airdisks", metric: TuningFrames,
		title:  "Tuning time vs broadcast disk count (zipf θ=0.95, F-Matrix)",
		xlabel: "broadcast disks",
		xs:     []float64{1, 2, 3, 4},
		variants: []variant{
			airVariant("unindexed", func(cfg *sim.Config, x float64) {
				cfg.ZipfTheta = 0.95
				cfg.Disks = int(x)
			}),
			airVariant("indexed", func(cfg *sim.Config, x float64) {
				cfg.ZipfTheta = 0.95
				cfg.Disks = int(x)
				cfg.IndexM = 8
			}),
		}},

	// Deliberately not part of "all": the scale study's million-client
	// points dominate the wall clock of everything else combined.
	{ID: idScale, onRequest: true, study: func(opt Options, clients []int) (string, []BenchExperiment, error) {
		bench, err := ScaleStudy(ScaleConfig{Clients: clients, Seed: opt.Seed}, opt.Progress)
		if err != nil {
			return "", nil, err
		}
		return ScaleTable(bench), []BenchExperiment{bench}, nil
	}},
}

// airVariant is one broadcast-program configuration of the airsched
// sweeps, which compare programs under a single algorithm (F-Matrix)
// instead of algorithms under one program — over a smaller, hotter
// database, so the multi-disk effects show within quick runs.
func airVariant(label string, configure func(*sim.Config, float64)) variant {
	return variant{label: label, apply: func(cfg *sim.Config, x float64) {
		cfg.Algorithm = protocol.FMatrix
		cfg.Objects = 60
		configure(cfg, x)
	}}
}

// FigureIDs lists every figure id in table order, comma-separated.
func FigureIDs() string {
	ids := make([]string, len(figures))
	for i := range figures {
		ids[i] = figures[i].ID
	}
	return strings.Join(ids, ", ")
}

// Select resolves a -figure argument to table rows: "all" is every row
// not marked on-request, anything else one row by id (case-insensitive).
func Select(id string) ([]*Figure, error) {
	var out []*Figure
	for i := range figures {
		f := &figures[i]
		if strings.EqualFold(id, f.ID) || (id == "all" && !f.onRequest) {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: unknown figure %q (want %s, or all)", id, FigureIDs())
	}
	return out, nil
}

// IsSweep reports whether the figure is a parameter sweep — one that
// runs into an Experiment, with its CSV form and shape check.
func (f *Figure) IsSweep() bool { return f.study == nil }

// sweep runs a sweep row: one series per configured algorithm, each
// applying the row's per-x mutation, unless the row names its variants.
func (f *Figure) sweep(opt Options) (*Experiment, error) {
	opt = opt.normalized()
	if f.algorithms != nil {
		opt.Algorithms = f.algorithms
	}
	variants := f.variants
	if variants == nil {
		for _, alg := range opt.Algorithms {
			variants = append(variants, variant{
				label: alg.String(),
				apply: func(cfg *sim.Config, x float64) {
					cfg.Algorithm = alg
					f.apply(cfg, x)
				},
			})
		}
	}
	return variantSweep(opt, f, variants)
}

// Run executes the figure and returns what bcbench prints and writes:
// the rendered table, the BENCH_<id>.json projections and, for a sweep,
// the experiment itself (nil for a study). clients overrides the
// x-values of the scale study; every other figure ignores it.
func (f *Figure) Run(opt Options, clients []int) (exp *Experiment, table string, benches []BenchExperiment, err error) {
	if !f.IsSweep() {
		table, benches, err = f.study(opt, clients)
		return nil, table, benches, err
	}
	if exp, err = f.sweep(opt); err != nil {
		return nil, "", nil, err
	}
	table = exp.Table(f.metric)
	if f.restartsToo {
		table += "\n" + exp.Table(RestartRatio)
	}
	return exp, table, []BenchExperiment{exp.Bench()}, nil
}

// ByID runs one sweep by its identifier (case-insensitive).
func ByID(id string, opt Options) (*Experiment, error) {
	figs, err := Select(id)
	if err != nil {
		return nil, err
	}
	if len(figs) != 1 || !figs[0].IsSweep() {
		return nil, fmt.Errorf("experiments: figure %q is not a single sweep, so it has no Experiment form", id)
	}
	return figs[0].sweep(opt)
}

// Metric picks the measurement the paper plots for this figure.
func (e *Experiment) Metric() Metric {
	for i := range figures {
		if figures[i].ID == e.ID {
			return figures[i].metric
		}
	}
	return ResponseTime
}
