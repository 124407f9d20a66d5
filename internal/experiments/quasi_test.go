package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func quasiTestConfig() QuasiConfig {
	return QuasiConfig{Objects: 128, Cycles: 100, Clients: 12}
}

// TestQuasiStudyCriterion pins the acceptance shape of the quasi
// figure: the hit ratio rises and the frames-listened cost falls
// monotonically with T, every validated read stays within its currency
// bound, the restart ratio at the knee stays within 1.2x of the T=0
// floor, and the kill -9 column recovers at least 95% of the pre-crash
// validated inventory.
func TestQuasiStudyCriterion(t *testing.T) {
	points, err := QuasiCurrency(Options{}, quasiTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 || points[0].T != 0 {
		t.Fatalf("sweep must start at the T=0 floor, got %d points", len(points))
	}

	for _, series := range []string{QuasiSeriesMemory, QuasiSeriesPersistent} {
		prev := points[0].Series[series]
		for _, p := range points[1:] {
			m := p.Series[series]
			if m.HitRatio < prev.HitRatio {
				t.Errorf("%s: hit ratio falls at T=%d (%.4f -> %.4f)", series, p.T, prev.HitRatio, m.HitRatio)
			}
			if m.FramesPerCommit > prev.FramesPerCommit {
				t.Errorf("%s: frames/commit rises at T=%d (%.3f -> %.3f)", series, p.T, prev.FramesPerCommit, m.FramesPerCommit)
			}
			prev = m
		}
		first, last := points[0].Series[series], points[len(points)-1].Series[series]
		if last.HitRatio <= first.HitRatio {
			t.Errorf("%s: hit ratio never rose across the sweep (%.4f -> %.4f)", series, first.HitRatio, last.HitRatio)
		}
		if last.FramesPerCommit >= first.FramesPerCommit {
			t.Errorf("%s: frames/commit never fell across the sweep (%.3f -> %.3f)", series, first.FramesPerCommit, last.FramesPerCommit)
		}

		// Bounded staleness: no validated read older than its bound.
		for _, p := range points {
			if m := p.Series[series]; int(m.MaxStaleness) > p.T {
				t.Errorf("%s: staleness %d exceeds the currency bound T=%d", series, m.MaxStaleness, p.T)
			}
		}

		// The knee — the smallest T delivering 90% of the best hit ratio —
		// must not pay for its hits in restarts: within 1.2x of the
		// no-cache floor.
		best := 0.0
		for _, p := range points {
			if h := p.Series[series].HitRatio; h > best {
				best = h
			}
		}
		floor := points[0].Series[series].RestartRatio
		for _, p := range points {
			if m := p.Series[series]; m.HitRatio >= 0.9*best {
				if m.RestartRatio > 1.2*floor {
					t.Errorf("%s: restart ratio %.4f at knee T=%d exceeds 1.2x floor %.4f", series, m.RestartRatio, p.T, floor)
				}
				break
			}
		}
	}

	// The crash column: the persistent tier revalidates >= 95% of its
	// pre-crash inventory; the memory tier has nothing to recover, so
	// its hit ratio never beats the persistent one.
	for _, p := range points {
		per, mem := p.Series[QuasiSeriesPersistent], p.Series[QuasiSeriesMemory]
		if p.T > 0 {
			if per.PreCrashInventory == 0 {
				t.Errorf("T=%d: persistent series had no pre-crash inventory", p.T)
			}
			if per.RecoveredRatio < 0.95 {
				t.Errorf("T=%d: recovered only %.0f%% of %d pre-crash entries, want >= 95%%",
					p.T, per.RecoveredRatio*100, per.PreCrashInventory)
			}
		}
		if mem.PreCrashInventory != 0 || mem.RecoveredRatio != 0 {
			t.Errorf("T=%d: memory series claims crash recovery (%d entries)", p.T, mem.PreCrashInventory)
		}
		if per.HitRatio < mem.HitRatio {
			t.Errorf("T=%d: persistent hit ratio %.4f below memory %.4f despite surviving the crash",
				p.T, per.HitRatio, mem.HitRatio)
		}
	}
}

// TestQuasiBenchShape checks the BENCH_quasi.json projection: the
// recovery column and the per-T values ride in the shared schema and
// the document round-trips.
func TestQuasiBenchShape(t *testing.T) {
	cfg := quasiTestConfig()
	cfg.CurrencyBounds = []int{0, 4}
	points, err := QuasiCurrency(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := QuasiBench(points)
	if b.ID != "quasi" || len(b.Points) != 2 || len(b.Labels) != 2 {
		t.Fatalf("bench shape: id=%q points=%d labels=%v", b.ID, len(b.Points), b.Labels)
	}
	for i, bp := range b.Points {
		for _, lbl := range b.Labels {
			m := bp.Series[lbl]
			for _, k := range []string{"hit_ratio", "frames_per_commit", "max_staleness", "precrash_inventory", "recovered_ratio"} {
				if _, ok := m.Values[k]; !ok {
					t.Fatalf("point %d series %s: missing value %q", i, lbl, k)
				}
			}
			if m.Obs == nil {
				t.Fatalf("point %d series %s: missing obs snapshot", i, lbl)
			}
		}
	}
	if rec := b.Points[1].Series[QuasiSeriesPersistent].Values["recovered_ratio"]; rec < 0.95 {
		t.Fatalf("persistent recovery column = %.3f, want >= 0.95", rec)
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchExperiment
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "quasi" || len(back.Points) != 2 {
		t.Fatalf("round-trip lost the document: id=%q points=%d", back.ID, len(back.Points))
	}
}

// TestQuasiRejectsBadConfig covers the validation edges: a run too short
// to crash mid-way and a database smaller than one transaction's reads.
func TestQuasiRejectsBadConfig(t *testing.T) {
	short := quasiTestConfig()
	short.Cycles = 1
	tiny := quasiTestConfig()
	tiny.Objects = 2
	for _, tc := range []struct {
		cfg  QuasiConfig
		want string
	}{
		{short, "crash cycle 0 outside run of 1 cycles"},
		{tiny, "degenerate quasi config"},
	} {
		_, err := QuasiCurrency(Options{}, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("config %+v: got %v, want error containing %q", tc.cfg, err, tc.want)
		}
	}
}

// TestQuasiLeavesNoScratchDir: the persistent stores live in a temp
// directory the run removes, crash and all.
func TestQuasiLeavesNoScratchDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cfg := quasiTestConfig()
	cfg.CurrencyBounds = []int{0, 4}
	points, err := QuasiCurrency(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inv := points[1].Series[QuasiSeriesPersistent].PreCrashInventory; inv == 0 {
		t.Fatal("persistent series stored nothing; the cleanup is untested")
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("run left %d entries in the temp directory, first %q", len(left), left[0].Name())
	}
}

// TestQuasiDeterministic: the same (seed, config) yields the identical
// sweep — the workload stream and the runtime are deterministic, so
// BENCH_quasi.json is reproducible byte for byte.
func TestQuasiDeterministic(t *testing.T) {
	cfg := quasiTestConfig()
	cfg.CurrencyBounds = []int{0, 4}
	run := func() string {
		points, err := QuasiCurrency(Options{Seed: 7}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return QuasiTable(points)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sweep not deterministic:\n%s\nvs\n%s", a, b)
	}
}
