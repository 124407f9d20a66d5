// Command bcsim runs one broadcast concurrency-control simulation with
// the paper's Table 1 parameters as defaults and prints the measured
// response time, restart ratio and run counters.
//
// Usage:
//
//	bcsim [flags]
//
// Example (the paper's default F-Matrix run):
//
//	bcsim -alg f-matrix
//
// Example (Datacycle under long client transactions, cf. Figure 2):
//
//	bcsim -alg datacycle -client-len 8
package main

import (
	"flag"
	"fmt"
	"os"

	"broadcastcc"
)

func main() {
	cfg := broadcastcc.DefaultSimConfig()
	algName := flag.String("alg", "f-matrix", "algorithm: datacycle, r-matrix, f-matrix, f-matrix-no, grouped")
	flag.IntVar(&cfg.ClientTxnLength, "client-len", cfg.ClientTxnLength, "client transaction length (reads)")
	flag.IntVar(&cfg.ServerTxnLength, "server-len", cfg.ServerTxnLength, "server transaction length (operations)")
	flag.Float64Var(&cfg.ServerTxnInterval, "server-interval", cfg.ServerTxnInterval, "bit-units between server transaction completions")
	flag.BoolVar(&cfg.ServerIntervalExponential, "server-exp", false, "draw server intervals from an exponential distribution")
	flag.IntVar(&cfg.Objects, "objects", cfg.Objects, "number of objects in the database")
	flag.Int64Var(&cfg.ObjectBits, "object-bits", cfg.ObjectBits, "object size in bits")
	flag.Float64Var(&cfg.ServerReadProb, "read-prob", cfg.ServerReadProb, "server operation read probability")
	flag.Float64Var(&cfg.MeanInterOpDelay, "op-delay", cfg.MeanInterOpDelay, "mean client inter-operation delay (bit-units, exponential)")
	flag.Float64Var(&cfg.MeanInterTxnDelay, "txn-delay", cfg.MeanInterTxnDelay, "mean client inter-transaction delay (bit-units, exponential)")
	flag.Float64Var(&cfg.RestartDelay, "restart-delay", cfg.RestartDelay, "client restart delay after an abort (bit-units)")
	flag.IntVar(&cfg.TimestampBits, "ts-bits", cfg.TimestampBits, "control timestamp size in bits")
	flag.IntVar(&cfg.ClientTxns, "txns", cfg.ClientTxns, "client transactions to run")
	flag.IntVar(&cfg.MeasureFrom, "measure-from", cfg.MeasureFrom, "discard this many transactions as warmup")
	flag.IntVar(&cfg.Groups, "groups", 10, "groups for -alg grouped")
	flag.Int64Var(&cfg.CacheCurrency, "cache-currency", cfg.CacheCurrency, "client cache currency bound in cycles (0 = no cache)")
	flag.IntVar(&cfg.CacheSize, "cache-size", cfg.CacheSize, "client cache entry cap (0 = unlimited)")
	flag.IntVar(&cfg.Disks, "disks", 0, "broadcast disks of the airsched program (0/1 = the paper's flat disk)")
	flag.Float64Var(&cfg.ZipfTheta, "zipf", 0, "zipf θ of the client access skew and of the estimate driving the disk partition")
	flag.Float64Var(&cfg.ClientUpdateProb, "update-prob", 0, "probability a client transaction is an update")
	flag.IntVar(&cfg.ClientTxnWrites, "update-writes", 1, "writes per client update transaction")
	flag.Float64Var(&cfg.UplinkLatency, "uplink-latency", 0, "uplink commit round trip (bit-units)")
	flag.IntVar(&cfg.Clients, "clients", 0, "concurrent clients (0/1 = the paper's single client: the same engine at n = 1)")
	flag.Float64Var(&cfg.FaultLoss, "loss", 0, "per-cycle probability a broadcast cycle is lost to the client ([0,1))")
	flag.Float64Var(&cfg.FaultDoze, "doze", 0, "per-cycle probability a client doze window starts ([0,1))")
	flag.IntVar(&cfg.FaultDozeLen, "doze-len", 0, "doze window length in cycles (default 1 when -doze > 0)")
	flag.Int64Var(&cfg.FaultSeed, "fault-seed", 0, "fault schedule seed (same seed = identical drop/doze trace)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.Float64Var(&cfg.MaxTime, "max-time", 1e13, "abort the run past this simulated time (bit-units, 0 = unlimited)")
	flag.Parse()

	alg, err := broadcastcc.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Algorithm = alg

	res, err := broadcastcc.RunSim(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("algorithm            %v\n", cfg.Algorithm)
	fmt.Printf("cycle length         %d bit-units (control overhead %.2f%%)\n",
		res.Layout.CycleBits(), 100*res.Layout.ControlOverhead())
	fmt.Printf("measured txns        %d (of %d run)\n", res.ResponseTime.N(), cfg.ClientTxns)
	fmt.Printf("response time mean   %.4g bit-units (95%% CI ±%.3g, %.1f%% of mean)\n",
		res.ResponseTime.Mean(), res.ResponseCI.HalfWidth, 100*res.ResponseCI.RelativeWidth())
	fmt.Printf("response time range  [%.4g, %.4g]\n", res.ResponseTime.Min(), res.ResponseTime.Max())
	fmt.Printf("restart ratio        %.4g restarts/txn (max %g)\n", res.RestartRatio, res.Restarts.Max())
	fmt.Printf("cycles simulated     %d\n", res.CyclesSimulated)
	fmt.Printf("server commits       %d\n", res.ServerCommits)
	if cfg.FaultLoss > 0 || cfg.FaultDoze > 0 {
		dozeLen := cfg.FaultDozeLen
		if dozeLen == 0 {
			dozeLen = 1 // the schedule's documented default
		}
		fmt.Printf("fault model          loss=%g doze=%g doze-len=%d seed=%d\n",
			cfg.FaultLoss, cfg.FaultDoze, dozeLen, cfg.FaultSeed)
	}
	if cfg.CacheCurrency > 0 {
		fmt.Printf("cache hits           %d\n", res.CacheHits)
	}
	if cfg.ClientUpdateProb > 0 {
		fmt.Printf("client commits       %d (uplink rejects %d)\n", res.ClientCommits, res.UplinkRejects)
		if res.UpdateResponseTime.N() > 0 {
			fmt.Printf("update response mean %.4g bit-units over %d txns\n",
				res.UpdateResponseTime.Mean(), res.UpdateResponseTime.N())
		}
	}
	fmt.Printf("simulated time       %.4g bit-units (last transaction's completion)\n", res.SimulatedTime)
}
