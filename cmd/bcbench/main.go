// Command bcbench regenerates the paper's evaluation: one table per
// figure (2a, 2b, 3a, 3b, 4a, 4b) plus the ablations (grouped matrix,
// caching, multi-speed disks, client updates, client count, reception
// faults), across Datacycle, R-Matrix, F-Matrix and F-Matrix-No.
//
// Usage:
//
//	bcbench -figure 2a              # one figure at paper scale (1000 txns)
//	bcbench -figure all -txns 200   # everything, quicker
//	bcbench -figure 4b -csv out.csv # machine-readable series
//	bcbench -figure all -parallel 8 # bound the sweep worker pool
//	bcbench -figure airsched -json bench/   # tuning-vs-skew study as BENCH_airsched.json
//	bcbench -figure grouped -json bench/    # grouped-matrix bandwidth study at n=10⁵
//	bcbench -figure quasi -json bench/      # persistent quasi-caching currency sweep
//	bcbench -figure shard -json bench/      # cluster-sharding channel study at n=10⁵
//	bcbench -figure scale -json bench/      # event-wheel sweep to 10⁶ clients as BENCH_scale.json
//
// The airsched figures measure the air-scheduling subsystem: "airsched"
// sweeps zipf skew θ comparing the flat broadcast against a 3-disk
// program with a (1,8) index on tuning time at equal-or-better access
// time; "airdisks" sweeps the disk count at θ=0.95. With -json every
// figure (classic sweeps included) is also written as BENCH_<id>.json
// in one shared schema for downstream tooling.
//
// Each sweep fans its independent simulation runs across a worker pool
// (GOMAXPROCS workers by default; -parallel overrides). Tables are
// byte-identical at any parallelism — every run is seeded purely by its
// configuration — so -parallel only changes wall-clock time.
//
// Numbers are in bit-units; shapes — who wins, by what factor, where
// curves diverge — are what reproduce (the substrate is a simulator,
// not the authors' testbed).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"broadcastcc"
	"broadcastcc/internal/experiments"
)

// study is a figure outside the classic sweeps: it runs, prints one
// table, and projects to zero or more BENCH_<id>.json files.
type study struct {
	id    string
	inAll bool
	run   func(opt broadcastcc.ExperimentOptions) (table string, benches []experiments.BenchExperiment, err error)
}

// writeBench writes one figure into dir in the shared benchmark schema.
func writeBench(dir string, bench experiments.BenchExperiment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+bench.ID+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = bench.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return err
}

// check exits on a failed run or write.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	figure := flag.String("figure", "all", "figure id: 2a, 2b, 3a, 3b, 4a, 4b, groups, caching, disks, updates, clients, faults, airsched, airdisks, delta, grouped, quasi, shard, wire, scale, or all")
	txns := flag.Int("txns", 1000, "client transactions per run (paper: 1000)")
	seed := flag.Int64("seed", 1, "random seed for every run")
	csvPath := flag.String("csv", "", "also write the series as CSV to this file (single figure only)")
	quiet := flag.Bool("quiet", false, "suppress per-run progress")
	maxTime := flag.Float64("max-time", 1e13, "per-run simulated-time guard in bit-units (0 = none)")
	shapeSlack := flag.Float64("shape-slack", 0.35, "tolerance for the qualitative shape check")
	parallel := flag.Int("parallel", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = sequential; results are identical either way)")
	jsonDir := flag.String("json", "", "write one machine-readable BENCH_<id>.json per figure into this directory")
	scaleClients := flag.String("scale-clients", "", "comma-separated client counts for -figure scale (default 10000,100000,1000000)")
	flag.Parse()

	opt := broadcastcc.ExperimentOptions{
		Txns:        *txns,
		Seed:        *seed,
		MaxTime:     *maxTime,
		Parallelism: *parallel,
	}
	if !*quiet {
		opt.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	type benches = []experiments.BenchExperiment
	studies := []study{
		// The scale study is deliberately not part of "all": its million-
		// client points dominate the wall clock of everything else combined.
		{"scale", false, func(opt broadcastcc.ExperimentOptions) (string, benches, error) {
			var counts []int
			if *scaleClients != "" {
				for _, part := range strings.Split(*scaleClients, ",") {
					n, err := strconv.Atoi(strings.TrimSpace(part))
					if err != nil {
						fmt.Fprintf(os.Stderr, "bad -scale-clients entry %q: %v\n", part, err)
						os.Exit(2)
					}
					counts = append(counts, n)
				}
			}
			bench, err := experiments.ScaleStudy(experiments.ScaleConfig{Clients: counts, Seed: *seed}, opt.Progress)
			if err != nil {
				return "", nil, err
			}
			return experiments.ScaleTable(bench), benches{bench}, nil
		}},
		{"delta", true, func(opt broadcastcc.ExperimentOptions) (string, benches, error) {
			points, err := experiments.DeltaAnalysis(opt)
			if err != nil {
				return "", nil, err
			}
			return experiments.DeltaTable(points), nil, nil
		}},
		{"grouped", true, func(opt broadcastcc.ExperimentOptions) (string, benches, error) {
			points, err := experiments.GroupedBandwidth(opt, experiments.GroupedConfig{})
			if err != nil {
				return "", nil, err
			}
			return experiments.GroupedTable(points), benches{experiments.GroupedBench(points)}, nil
		}},
		{"quasi", true, func(opt broadcastcc.ExperimentOptions) (string, benches, error) {
			points, err := experiments.QuasiCurrency(opt, experiments.QuasiConfig{})
			if err != nil {
				return "", nil, err
			}
			return experiments.QuasiTable(points), benches{experiments.QuasiBench(points)}, nil
		}},
		{"shard", true, func(opt broadcastcc.ExperimentOptions) (string, benches, error) {
			points, err := experiments.ShardStudy(opt, experiments.ShardConfig{})
			if err != nil {
				return "", nil, err
			}
			return experiments.ShardTable(points), benches{experiments.ShardBench(points)}, nil
		}},
		{"wire", true, func(opt broadcastcc.ExperimentOptions) (string, benches, error) {
			analysis, err := experiments.WireStudy(opt, experiments.WireConfig{})
			if err != nil {
				return "", nil, err
			}
			scaling, fec := experiments.WireBench(analysis)
			return experiments.WireTable(analysis), benches{scaling, fec}, nil
		}},
	}
	for _, st := range studies {
		if *figure != st.id && !(st.inAll && *figure == "all") {
			continue
		}
		table, out, err := st.run(opt)
		check(err)
		fmt.Println(table)
		fmt.Println()
		if *jsonDir != "" {
			for _, bench := range out {
				check(writeBench(*jsonDir, bench))
			}
		}
		if *figure == st.id {
			return
		}
	}

	var exps []*broadcastcc.Experiment
	if *figure == "all" {
		all, err := broadcastcc.RunAllFigures(opt)
		check(err)
		exps = all
	} else {
		e, err := broadcastcc.RunFigure(*figure, opt)
		check(err)
		exps = append(exps, e)
	}

	for _, e := range exps {
		if *jsonDir != "" {
			check(writeBench(*jsonDir, e.Bench()))
		}
		fmt.Println(e.Table(e.Metric()))
		if e.ID == "2a" { // the paper discusses both metrics for Figure 2
			fmt.Println(e.Table(experiments.RestartRatio))
		}
		if v := e.CheckShape(*shapeSlack); len(v) > 0 {
			fmt.Printf("shape check: %d divergence(s) from the paper's qualitative ordering:\n", len(v))
			for _, x := range v {
				fmt.Printf("  figure %s at x=%g: %s\n", x.Figure, x.X, x.Detail)
			}
		} else if len(e.Labels) == 4 {
			fmt.Println("shape check: matches the paper's qualitative ordering")
		}
		fmt.Println()
	}

	if *csvPath != "" {
		if len(exps) != 1 {
			fmt.Fprintln(os.Stderr, "-csv requires a single -figure")
			os.Exit(2)
		}
		f, err := os.Create(*csvPath)
		check(err)
		if err := exps[0].WriteCSV(f); err != nil {
			f.Close()
			check(err)
		}
		check(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}
