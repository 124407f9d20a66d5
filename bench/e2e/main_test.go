package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"broadcastcc/internal/cmatrix"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// run set re-executes os.Executable() once per workload and round, and
// under `go test` that is this binary.
func TestMain(m *testing.M) {
	if os.Getenv("E2E_AS_MAIN") == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeSeconds sets the length of a smoke run. At -quick scale it is at
// least 32 cycles of every workload: long enough for a few multi-cycle
// transactions, grouped rejects and cache evictions.
const smokeSeconds = 16

func smokeRun(t *testing.T, sp *spec, seed int64, trace bool) *runResult {
	t.Helper()
	res, err := runWorkload(runOpts{sp: sp.quickly(), seed: seed, seconds: smokeSeconds, trace: trace, outDir: t.TempDir(), quick: true})
	if err != nil {
		t.Fatalf("%s seed %d: %v", sp.name, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 32 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d notes=%v",
			sp.name, seed, res.Correct, res.Attempted, res.Failed, res.info.Notes)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func checkMetrics(t *testing.T, sp *spec, res *runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, table has %d", sp.name, len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		m, ok := res.Metrics[def.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", sp.name, def.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", sp.name, def.name, m.Value)
		case m.Unit != def.unit:
			t.Errorf("%s: metric %s has unit %q, table says %q", sp.name, def.name, m.Unit, def.unit)
		}
		if !nameRE.MatchString(def.name) || len(def.name) > 64 {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", def.name)
		}
	}
}

// TestSmoke runs every workload end to end at smoke scale: the
// correctness checks must pass, every metric of both tables must come
// out once and finite, end-to-end metrics must not be zero, and
// whatever is a count must repeat exactly for a seed.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			a := smokeRun(t, sp, 1, false)
			b := smokeRun(t, sp, 1, false)
			c := smokeRun(t, sp, 2, false)
			checkMetrics(t, sp, a, endToEnd)
			checkMetrics(t, sp, c, endToEnd)
			for _, def := range endToEnd {
				if a.Metrics[def.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", sp.name, def.name, a.Metrics[def.name].Value)
				}
			}
			cycles := int64(sp.quickly().cycles(smokeSeconds))
			if a.info.Cycles != cycles {
				t.Errorf("measured %d cycles, want %d", a.info.Cycles, cycles)
			}
			ai, bi := a.info, b.info
			if ai.Accepted != bi.Accepted || ai.Rejected != bi.Rejected || ai.ReadTxns != bi.ReadTxns ||
				ai.Restarts != bi.Restarts || a.Attempted != b.Attempted {
				t.Errorf("counts differ between two runs of seed 1: %+v vs %+v", ai, bi)
			}
			if x, y := a.Metrics["air_bytes_per_cycle"].Value, b.Metrics["air_bytes_per_cycle"].Value; x != y {
				t.Errorf("air_bytes_per_cycle differs between two runs of seed 1: %v vs %v", x, y)
			}
			if sp.conflictEvery > 0 {
				if want := cycles * int64(sp.updates/sp.conflictEvery); ai.Rejected != want {
					t.Errorf("%d updates rejected, want exactly 1 in %d = %d", ai.Rejected, sp.conflictEvery, want)
				}
			}

			l := smokeRun(t, sp, 1, true)
			checkMetrics(t, sp, l, perLayer)
			if l.Metrics["netcast.overflow_reaps"].Value != 0 {
				t.Errorf("netcast.overflow_reaps = %v", l.Metrics["netcast.overflow_reaps"].Value)
			}
			if got, want := l.Metrics["netcast.tx_bytes_per_cycle"].Value, a.Metrics["air_bytes_per_cycle"].Value*float64(sp.tuners); got != want {
				t.Errorf("traced pass sent %v B/cycle, untraced pass %v", got, want)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in spec.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v, want [bench/e2e]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(specs))
	}
	for i, sp := range specs {
		if doc.Workloads[i].Name != sp.name || doc.Workloads[i].Why != sp.why {
			t.Errorf("workload %d = %+v, spec says %s: %s", i, doc.Workloads[i], sp.name, sp.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	haveSetup := false
	for i, def := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != def.name || m.Unit != def.unit || m.Better != def.better || m.Bound != def.bound {
			t.Errorf("end_to_end[%d] = %+v, table says %+v", i, m, def)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(doc.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		if m := doc.PerLayer[i]; m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
			t.Errorf("per_layer[%d] = %+v, table says %+v", i, m, def)
		}
	}
}

// TestRunSetAndCompare drives the whole pipeline at smoke scale — one
// round of every workload and the traced pass, each in a child process
// — and then compares the result set with itself and with a slowed copy.
func TestRunSetAndCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process per workload")
	}
	t.Setenv("E2E_AS_MAIN", "1")
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := runSet(setOpts{seed: 1, seconds: smokeSeconds, rounds: 1, outDir: out, quick: true}, &stdout, &stderr); code != 0 {
		t.Fatalf("run set exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	for _, sp := range specs {
		if _, err := os.Stat(filepath.Join(out, "trace-"+sp.name+".json")); err != nil {
			t.Error(err)
		}
		if !strings.Contains(stdout.String(), sp.name+"  cycles=") {
			t.Errorf("table has no row for %s", sp.name)
		}
	}
	base := filepath.Join(out, "BENCH_e2e.json")
	set, err := loadSet(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		w := set.Workloads[sp.name]
		if w == nil || w.Failed != 0 || w.Attempted == 0 || len(w.Metrics) != len(endToEnd) {
			t.Fatalf("%s in BENCH_e2e.json: %+v", sp.name, w)
		}
	}
	var table bytes.Buffer
	if code := compareFiles(base, base, &table, &stderr); code != 0 {
		t.Errorf("comparing a result set with itself exited %d:\n%s", code, table.String())
	}
	// compareWith changes a copy of the result set and compares the
	// original with it.
	compareWith := func(change func(*setFile)) (int, string) {
		t.Helper()
		set, err := loadSet(base)
		if err != nil {
			t.Fatal(err)
		}
		change(set)
		changed := filepath.Join(out, "changed.json")
		if err := writeJSON(changed, set); err != nil {
			t.Fatal(err)
		}
		table.Reset()
		return compareFiles(base, changed, &table, &stderr), table.String()
	}
	for _, c := range []struct {
		name   string
		change func(*setFile)
		want   int
	}{
		{"one metric slowed beyond its bound", func(f *setFile) {
			m := f.Workloads["air-table1"].Metrics["cycle_ms"]
			for i := range m.Rounds {
				m.Rounds[i] *= 1.5
			}
			m.Median *= 1.5
		}, 1},
		{"one more restart", func(f *setFile) { f.Workloads["read-cached"].Restarts++ }, 1},
		{"a verdict flipped", func(f *setFile) {
			f.Workloads["uplink-grouped"].Accepted--
			f.Workloads["uplink-grouped"].Rejected++
		}, 1},
		{"a metric no longer reported", func(f *setFile) { delete(f.Workloads["fanout-small"].Metrics, "setup_s") }, 1},
		{"a workload no longer run", func(f *setFile) { delete(f.Workloads, "fanout-small") }, 1},
		{"another seed", func(f *setFile) { f.Seed = 2 }, 2},
		{"another length", func(f *setFile) { f.Seconds *= 2 }, 2},
		{"drifted, nothing worse", func(f *setFile) { f.Drifted = true }, 2},
		{"a slower host, nothing worse", func(f *setFile) {
			f.YardstickMs[0] *= 1 + 2*driftLimit
			f.YardstickMs[1] *= 1 + 2*driftLimit
		}, 2},
	} {
		code, rows := compareWith(c.change)
		if code != c.want || (code == 1) != strings.Contains(rows, "worse") {
			t.Errorf("%s: -compare exited %d, want %d:\n%s", c.name, code, c.want, rows)
		}
	}
}

func TestVerdict(t *testing.T) {
	mk := func(better string, rounds ...float64) *setMetric {
		return &setMetric{Better: better, Rounds: rounds, Median: medianOf(rounds)}
	}
	cases := []struct {
		name     string
		old, cur *setMetric
		bound    float64
		want     string
	}{
		{"same", mk("lower", 10, 10.1, 9.9), mk("lower", 10, 10.2, 9.8), 0.1, "ok"},
		{"beyond the bound, tight rounds", mk("lower", 10, 10.1, 9.9), mk("lower", 12, 12.1, 11.9), 0.1, "worse"},
		{"wide rounds", mk("lower", 10, 13, 8), mk("lower", 11, 14, 9), 0.1, "unresolved"},
		{"wide rounds but every round better", mk("lower", 10, 13, 9), mk("lower", 5, 8, 4), 0.1, "ok"},
		{"wide rounds but every round worse", mk("lower", 10, 13, 9), mk("lower", 20, 26, 18), 0.1, "worse"},
		{"higher is better, dropped", mk("higher", 100, 101, 99), mk("higher", 80, 81, 79), 0.1, "worse"},
	}
	for _, c := range cases {
		if _, got := verdict(c.old, c.cur, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSeriesDecimation(t *testing.T) {
	s := series{buf: make([]uint32, 0, 8), stride: 1}
	for i := 0; i < 100; i++ {
		s.add(int64(i))
	}
	if len(s.buf) > 8 || s.stride < 8 {
		t.Fatalf("len %d stride %d after 100 samples into 8 slots", len(s.buf), s.stride)
	}
	for i := 1; i < len(s.buf); i++ {
		if int(s.buf[i]-s.buf[i-1]) != s.stride {
			t.Fatalf("samples %v are not an even subsample (stride %d)", s.buf, s.stride)
		}
	}
}

func TestShadow(t *testing.T) {
	sh := newShadow(2)
	if seq, ok := sh.at(1, 5); !ok || seq != 0 {
		t.Fatalf("initial version: %d %v", seq, ok)
	}
	sh.accept(1, 3, 7)  // committed during cycle 3: visible from 4
	sh.accept(1, 3, 8)  // same cycle, later commit wins
	sh.accept(1, 9, 11) // visible from 10
	for _, c := range []struct {
		cycle int64
		want  uint64
	}{{3, 0}, {4, 8}, {9, 8}, {10, 11}} {
		if seq, ok := sh.at(1, cmatrix.Cycle(c.cycle)); !ok || seq != c.want {
			t.Errorf("at cycle %d: version %d (%v), want %d", c.cycle, seq, ok, c.want)
		}
	}
	for k := 0; k < shadowDepth+2; k++ {
		sh.accept(0, cmatrix.Cycle(20+k), uint64(100+k))
	}
	if _, ok := sh.at(0, 5); ok {
		t.Error("a version older than the ring was answered instead of reported missing")
	}
}
