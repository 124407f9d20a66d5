// Command e2e is the repository's wall-clock benchmark: a live netcast
// server/tuner pair on loopback TCP, driven in lock-step from one
// goroutine, on four workloads that each stress a different layer.
//
//	go run ./bench/e2e                      run set: 3 interleaved rounds of every
//	                                        workload untraced, 3 traced, one table,
//	                                        BENCH_e2e.json, BENCH_layers.json and
//	                                        trace-<workload>.json under -out
//	go run ./bench/e2e -workload W ...      one run of one workload; the last line
//	                                        of output is the result as JSON
//	go run ./bench/e2e -compare old new     regression table of two BENCH_e2e.json
//
// README.md in this directory says what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print its result line (default: the whole run set)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 15, "how long one run measures on the baseline host: a fixed number of cycles per second asked for, so counts repeat exactly per seed")
	trace := fs.Int("trace", 0, "1: traced pass and stage replay, reporting the per-layer metrics; 0: untraced pass, reporting the end-to-end metrics")
	out := fs.String("out", defaultOut(), "directory for results, traces and scratch files")
	quick := fs.Bool("quick", false, "smoke-test scale: short warm-up, one set-up, 1/100 of the cycles, minimal replay; the numbers mean nothing")
	compare := fs.Bool("compare", false, "compare two BENCH_e2e.json files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The reference box has 2 vCPUs: one for the driver and the server
	// side, one for the program's own goroutines (tuner loops, uplink
	// handler) and the collector.
	runtime.GOMAXPROCS(2)
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "e2e: -seconds must be positive")
		return 2
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: e2e -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload != "":
		sp := specByName(*workload)
		if sp == nil {
			fmt.Fprintf(stderr, "e2e: unknown workload %q\n", *workload)
			return 2
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		if *quick {
			sp = sp.quickly()
		}
		res, err := runWorkload(runOpts{sp: sp, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *out, quick: *quick})
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		return printRun(res, stdout, stderr)
	default:
		return runSet(setOpts{seed: *seed, seconds: *seconds, rounds: setRounds, outDir: *out, quick: *quick}, stdout, stderr)
	}
}

// defaultOut keeps results inside the benchmark's own directory when
// run from the repository root, as `go run ./bench/e2e` is.
func defaultOut() string {
	if st, err := os.Stat("bench/e2e"); err == nil && st.IsDir() {
		return "bench/e2e/out"
	}
	return "out"
}

// printRun writes one run for people, then the info line and the
// result line for programs. It returns the process's exit code.
func printRun(res *runResult, stdout, stderr io.Writer) int {
	in := res.info
	fmt.Fprintf(stdout, "%s seed=%d cycles=%d measured_s=%.2f ops_attempted=%d ops_failed=%d accepted=%d rejected=%d read_txns=%d restarts=%d yardstick_ms=%.3f/%.3f host_ms=%.3f\n",
		in.Workload, in.Seed, in.Cycles, in.MeasuredS, res.Attempted, res.Failed, in.Accepted, in.Rejected, in.ReadTxns, in.Restarts,
		in.YardstickMs[0], in.YardstickMs[1], in.HostMs)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range in.Notes {
		fmt.Fprintln(stderr, "e2e: FAILED:", n)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "e2e: metric %s is not finite\n", name)
			return 1
		}
	}
	info, _ := json.Marshal(in)
	fmt.Fprintf(stdout, "info %s\n", info)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// sortedKeys returns a metric map's names in order.
func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
