// Command bcbench regenerates the paper's evaluation: one table per
// figure of internal/experiments' figure table — the paper's sweeps and
// the ablations across Datacycle, R-Matrix, F-Matrix and F-Matrix-No,
// plus the standalone studies. `bcbench -h` lists the figure ids.
//
// Usage:
//
//	bcbench -figure 2a              # one figure at paper scale (1000 txns)
//	bcbench -figure all -txns 200   # everything, quicker
//	bcbench -figure 4b -csv out.csv # machine-readable series (sweeps only)
//	bcbench -figure all -parallel 8 # bound the sweep worker pool
//	bcbench -figure airsched -json bench/   # tuning-vs-skew study as BENCH_airsched.json
//	bcbench -figure grouped -json bench/    # grouped-matrix bandwidth study at n=10⁵
//	bcbench -figure quasi -json bench/      # persistent quasi-caching currency sweep
//	bcbench -figure shard -json bench/      # cluster-sharding channel study at n=10⁵
//	bcbench -figure scale -json bench/      # event-wheel sweep to 10⁶ clients as BENCH_scale.json
//
// What each figure sweeps and measures is written next to its row in
// the figure table. With -json every figure (classic sweeps included)
// is also written as BENCH_<id>.json in one shared schema for
// downstream tooling; `make figures-check` holds every table and file
// to the committed testdata.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"broadcastcc/internal/experiments"
)

// writeBench writes one figure into dir in the shared benchmark schema.
func writeBench(dir string, bench experiments.BenchExperiment, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+bench.ID+".json")
	return writeFile(path, bench.WriteJSON, stderr)
}

// writeFile creates path, fills it through write and reports it.
func writeFile(path string, write func(io.Writer) error, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values: 2 for a
// command line it rejects — before any simulation runs — and 1 for a
// failed run or write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figure := fs.String("figure", "all", "figure id: "+experiments.FigureIDs()+", or all")
	txns := fs.Int("txns", 1000, "client transactions per run (paper: 1000)")
	seed := fs.Int64("seed", 1, "random seed for every run")
	csvPath := fs.String("csv", "", "also write the series as CSV to this file (a single sweep figure only)")
	quiet := fs.Bool("quiet", false, "suppress per-run progress")
	maxTime := fs.Float64("max-time", 1e13, "per-run simulated-time guard in bit-units (0 = none)")
	shapeSlack := fs.Float64("shape-slack", 0.35, "tolerance for the qualitative shape check")
	parallel := fs.Int("parallel", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = sequential; results are identical either way)")
	jsonDir := fs.String("json", "", "write one machine-readable BENCH_<id>.json per figure into this directory")
	scaleClients := fs.String("scale-clients", "", "comma-separated client counts for -figure scale (default 10000,100000,1000000)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	figures, err := experiments.Select(*figure)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *csvPath != "" && (len(figures) != 1 || !figures[0].IsSweep()) {
		fmt.Fprintln(stderr, "-csv requires a single sweep -figure")
		return 2
	}
	var clients []int
	if *scaleClients != "" {
		for _, part := range strings.Split(*scaleClients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(stderr, "bad -scale-clients entry %q: %v\n", part, err)
				return 2
			}
			clients = append(clients, n)
		}
	}

	opt := experiments.Options{
		Txns:        *txns,
		Seed:        *seed,
		MaxTime:     *maxTime,
		Parallelism: *parallel,
	}
	if !*quiet {
		opt.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	// report runs one figure, prints it and writes what was asked for.
	report := func(f *experiments.Figure) error {
		e, table, benches, err := f.Run(opt, clients)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, table)
		if e != nil {
			if v := e.CheckShape(*shapeSlack); len(v) > 0 {
				fmt.Fprintf(stdout, "shape check: %d divergence(s) from the paper's qualitative ordering:\n", len(v))
				for _, x := range v {
					fmt.Fprintf(stdout, "  figure %s at x=%g: %s\n", x.Figure, x.X, x.Detail)
				}
			} else if len(e.Labels) == 4 {
				fmt.Fprintln(stdout, "shape check: matches the paper's qualitative ordering")
			}
		}
		fmt.Fprintln(stdout)
		if *jsonDir != "" {
			for _, bench := range benches {
				if err := writeBench(*jsonDir, bench, stderr); err != nil {
					return err
				}
			}
		}
		if *csvPath != "" {
			return writeFile(*csvPath, e.WriteCSV, stderr)
		}
		return nil
	}
	for _, f := range figures {
		if err := report(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
