// Command bcconform soaks the conformance harness: it generates seeded
// broadcast workloads, runs them through the dual-server differential
// oracle, and checks the paper's acceptance lattice
//
//	Datacycle ⊆ R-Matrix ⊆ F-Matrix ⊆ APPROX ⊆ update consistent
//
// plus the server invariants (Theorem 2 incremental maintenance,
// copy-on-write snapshot immutability, lockstep agreement) on every
// seed. The first violating seed is shrunk to a minimal counterexample
// and written into the corpus, which the regression tests replay on
// every go test.
//
// Usage:
//
//	bcconform -soak 10000             # soak seeds 1..10000
//	bcconform -seed 42                # check one seed, print the report
//	bcconform -replay                 # replay the committed corpus
//	bcconform -soak 5000 -nofaults    # clean air only
//
// Exit status is non-zero iff a violation (or an error) occurred.
package main

import (
	"flag"
	"fmt"
	"os"

	"broadcastcc/internal/conformance"
)

func main() {
	soak := flag.Int("soak", 1000, "number of consecutive seeds to check")
	base := flag.Int64("base", 1, "first seed of the soak")
	seed := flag.Int64("seed", 0, "check this single seed instead of soaking")
	replay := flag.Bool("replay", false, "replay the committed corpus instead of soaking")
	corpusDir := flag.String("corpus", "internal/conformance/corpus", "corpus directory for -replay and for writing shrunk counterexamples")
	noShrink := flag.Bool("noshrink", false, "report the first violation without shrinking or persisting it")
	noFaults := flag.Bool("nofaults", false, "disable reception-fault injection")
	noCache := flag.Bool("nocache", false, "disable cached (out-of-order) reads")
	noAir := flag.Bool("noair", false, "disable airsched program workloads (wire-level rebroadcast checks)")
	verbose := flag.Bool("v", false, "print per-transaction verdicts for single-seed checks")
	flag.Parse()

	p := conformance.DefaultParams()
	p.Faults = !*noFaults
	p.Cache = !*noCache
	if *noAir {
		p.Air = 0
	}

	switch {
	case *replay:
		os.Exit(runReplay(*corpusDir))
	case *seed != 0:
		os.Exit(runOne(*seed, p, *verbose))
	default:
		os.Exit(runSoak(*base, *soak, p, *corpusDir, *noShrink))
	}
}

func runOne(seed int64, p conformance.Params, verbose bool) int {
	w := conformance.Generate(seed, p)
	rep, err := conformance.CheckWorkload(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcconform: %v\n", err)
		return 1
	}
	dc, rm, fm, ro := rep.Accepted()
	fmt.Printf("seed %d: %d objects, %d cycles, %d commits, %d client txns\n",
		seed, w.Objects, w.Cycles, len(w.Commits), w.TxnCount()-len(w.Commits))
	if a := w.Air; a != nil {
		fmt.Printf("air program: %d disks, (1,%d) index, zipf θ=%.2f, refresh every %d\n",
			a.Disks, a.IndexM, a.Skew, a.RefreshEvery)
	}
	fmt.Printf("read-only accepted: Datacycle %d/%d, R-Matrix %d/%d, F-Matrix %d/%d\n",
		dc, ro, rm, ro, fm, ro)
	if verbose {
		for _, tv := range rep.Txns {
			kind := "read-only"
			if tv.Update {
				kind = fmt.Sprintf("update (uplink accepted=%v)", tv.UplinkAccepted)
			}
			if tv.Cached {
				kind += ", cached"
			}
			if tv.Truncated {
				kind += ", truncated"
			}
			fmt.Printf("  client %d txn %d [%s]: reads=%v D=%v R=%v F=%v APPROX=%v UC=%v\n",
				tv.Client, tv.Txn, kind, tv.Reads,
				tv.Datacycle, tv.RMatrix, tv.FMatrix, tv.Approx, tv.UpdateConsistent)
		}
		fmt.Printf("induced history: %s\n", rep.History)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "VIOLATION: %v\n", v)
	}
	if len(rep.Violations) > 0 {
		return 1
	}
	fmt.Println("conforms")
	return 0
}

func runSoak(base int64, n int, p conformance.Params, corpusDir string, noShrink bool) int {
	seed, rep, clean, found, err := conformance.Soak(base, n, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcconform: seed %d: %v\n", seed, err)
		return 1
	}
	if !found {
		fmt.Printf("soak: %d seeds (%d..%d), zero lattice violations\n", clean, base, base+int64(n)-1)
		return 0
	}
	fmt.Fprintf(os.Stderr, "soak: seed %d violates conformance after %d clean seeds:\n", seed, clean)
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "  %v\n", v)
	}
	if noShrink {
		return 1
	}
	shrunk, srep := conformance.Shrink(rep.Workload)
	if srep == nil {
		fmt.Fprintln(os.Stderr, "bcconform: shrinking lost the violation; persisting the original workload")
		shrunk, srep = rep.Workload, rep
	}
	fmt.Fprintf(os.Stderr, "shrunk to %d transactions (%d commits, %d clients, %d cycles): %v\n",
		shrunk.TxnCount(), len(shrunk.Commits), len(shrunk.Clients), shrunk.Cycles, srep.Violations[0])
	ce := &conformance.Counterexample{
		Seed:      seed,
		Note:      "found by bcconform soak",
		Violation: srep.Violations[0].Kind,
		Detail:    srep.Violations[0].Detail,
		History:   srep.History,
		Workload:  shrunk,
	}
	path, err := conformance.WriteCounterexample(corpusDir, ce)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcconform: writing counterexample: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "counterexample written to %s\n", path)
	return 1
}

func runReplay(corpusDir string) int {
	corpus, err := conformance.LoadCorpus(corpusDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcconform: %v\n", err)
		return 1
	}
	if len(corpus) == 0 {
		fmt.Printf("replay: corpus %s is empty\n", corpusDir)
		return 0
	}
	bad := 0
	for name, ce := range corpus {
		if err := conformance.Replay(ce); err != nil {
			fmt.Fprintf(os.Stderr, "replay %s: %v\n", name, err)
			bad++
			continue
		}
		if d := ce.Workload.Defect; d != conformance.DefectNone {
			fmt.Printf("replay %s: %s reproduces %s, conforms without it (%s)\n", name, d, ce.Violation, ce.Note)
			continue
		}
		fmt.Printf("replay %s: conforms (%s)\n", name, ce.Note)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
