package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// A run set is what `go run ./bench/e2e` produces: the single run of
// BENCHMARK.json's command, for every workload, untraced and then
// traced, three rounds of each interleaved A B C D A B C D A B C D so
// that minutes-long host drift lands on all workloads alike, each run in
// a process of its own so that set-up, heap and collector state are per
// run. The reported value of a metric is the median of its rounds.

const setSchema = "bench-e2e/1"

// setRounds is how many interleaved rounds of every workload a run set makes.
const setRounds = 3

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

type setMetric struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Rounds []float64 `json:"rounds"`
	Median float64   `json:"median"`
}

type setWorkload struct {
	Why       string                `json:"why"`
	Cycles    int64                 `json:"cycles"`
	Attempted int64                 `json:"ops_attempted"`
	Failed    int64                 `json:"ops_failed"`
	Accepted  int64                 `json:"accepted"`
	Rejected  int64                 `json:"rejected"`
	ReadTxns  int64                 `json:"read_txns"`
	Restarts  int64                 `json:"restarts"`
	Metrics   map[string]*setMetric `json:"metrics"`
}

// setFile is BENCH_e2e.json (end-to-end metrics, one value per round)
// or BENCH_layers.json (per-layer metrics of the traced pass).
type setFile struct {
	Schema      string                  `json:"schema"`
	Kind        string                  `json:"kind"`
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Host        hostInfo                `json:"host"`
	YardstickMs [2]float64              `json:"yardstick_ms"`
	Drifted     bool                    `json:"drifted"`
	Workloads   map[string]*setWorkload `json:"workloads"`
}

type setOpts struct {
	seed    int64
	seconds float64
	rounds  int
	outDir  string
	quick   bool
}

func readHost() hostInfo {
	h := hostInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// runChild runs one workload in a process of its own and parses the
// info line and the result line off the end of its output.
func runChild(sp *spec, o setOpts, trace int, stderr io.Writer) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", sp.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-out", o.outDir,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	res := &runResult{}
	var haveResult bool
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "info "):
			if err := json.Unmarshal([]byte(line[5:]), &res.info); err != nil {
				return nil, fmt.Errorf("%s: info line: %w", sp.name, err)
			}
		case strings.HasPrefix(line, "{"):
			if err := json.Unmarshal([]byte(line), res); err != nil {
				return nil, fmt.Errorf("%s: result line: %w", sp.name, err)
			}
			haveResult = true
		}
	}
	if !haveResult {
		return nil, fmt.Errorf("%s: no result (%v)", sp.name, runErr)
	}
	return res, nil
}

func (w *setWorkload) absorb(sp *spec, res *runResult, defs []metricDef) {
	w.Why = sp.why
	w.Cycles = res.info.Cycles
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Accepted, w.Rejected = res.info.Accepted, res.info.Rejected
	w.ReadTxns, w.Restarts = res.info.ReadTxns, res.info.Restarts
	for _, def := range defs {
		mv, ok := res.Metrics[def.name]
		if !ok {
			continue
		}
		m := w.Metrics[def.name]
		if m == nil {
			m = &setMetric{Unit: def.unit, Better: def.better, Bound: def.bound}
			w.Metrics[def.name] = m
		}
		m.Rounds = append(m.Rounds, mv.Value)
		m.Median = medianOf(m.Rounds)
	}
}

func newSetFile(kind string, o setOpts, host hostInfo) *setFile {
	f := &setFile{Schema: setSchema, Kind: kind, Seed: o.seed, Seconds: o.seconds, Host: host, Workloads: map[string]*setWorkload{}}
	for _, sp := range specs {
		f.Workloads[sp.name] = &setWorkload{Metrics: map[string]*setMetric{}}
	}
	return f
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSet performs the run set and returns the process's exit code.
func runSet(o setOpts, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	host := readHost()
	e2e, layers := newSetFile("e2e", o, host), newSetFile("layers", o, host)
	// Every run reads the yardstick before and after itself.
	var yards []float64
	failed := false
	take := func(f *setFile, defs []metricDef, sp *spec, trace int) bool {
		res, err := runChild(sp, o, trace, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return false
		}
		f.Workloads[sp.name].absorb(sp, res, defs)
		yards = append(yards, res.info.YardstickMs[:]...)
		fmt.Fprintf(stderr, "e2e:   yardstick %.3f ms before, %.3f ms after\n", res.info.YardstickMs[0], res.info.YardstickMs[1])
		failed = failed || !res.Correct
		return true
	}
	for trace, pass := range []struct {
		f    *setFile
		defs []metricDef
	}{{e2e, endToEnd}, {layers, perLayer}} {
		for r := 0; r < o.rounds; r++ {
			for _, sp := range specs {
				fmt.Fprintf(stderr, "e2e: %s round %d/%d %s\n", pass.f.Kind, r+1, o.rounds, sp.name)
				if !take(pass.f, pass.defs, sp, trace) {
					return 1
				}
			}
		}
	}
	// The host's speed in the first and in the second half of the set.
	y0, y1 := medianOf(yards[:len(yards)/2]), medianOf(yards[len(yards)/2:])
	drifted := !o.quick && drift(y0, y1) > driftLimit
	for _, f := range []*setFile{e2e, layers} {
		f.YardstickMs, f.Drifted = [2]float64{y0, y1}, drifted
	}

	for _, sp := range specs {
		w := e2e.Workloads[sp.name]
		fmt.Fprintf(stdout, "\n%s  cycles=%d ops_attempted=%d ops_failed=%d accepted=%d rejected=%d read_txns=%d restarts=%d\n",
			sp.name, w.Cycles, w.Attempted, w.Failed, w.Accepted, w.Rejected, w.ReadTxns, w.Restarts)
		for _, def := range endToEnd {
			if m := w.Metrics[def.name]; m != nil {
				fmt.Fprintf(stdout, "  %-22s %14.4f %-6s rounds %v\n", def.name, m.Median, m.Unit, m.Rounds)
			}
		}
		lw := layers.Workloads[sp.name]
		for _, def := range perLayer {
			if m := lw.Metrics[def.name]; m != nil {
				fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", def.name, m.Median, m.Unit)
			}
		}
	}
	fmt.Fprintf(stdout, "\nhost.yardstick_ms first half %.3f second half %.3f drifted=%v\n", y0, y1, drifted)
	if drifted {
		fmt.Fprintf(stderr, "e2e: the host's speed moved by more than %.0f %% during the run set: do not compare it with another\n", driftLimit*100)
	}
	for name, f := range map[string]*setFile{"BENCH_e2e.json": e2e, "BENCH_layers.json": layers} {
		if err := writeJSON(filepath.Join(o.outDir, name), f); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "results in %s\n", o.outDir)
	if failed {
		return 1
	}
	return 0
}
