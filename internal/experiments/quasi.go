package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
)

// The persistent quasi-caching study (Section 3.3 under DESIGN.md §13):
// what does a weak-currency cache buy a broadcast client, and what does
// persisting it buy across a crash? The sweep's x-axis is the currency
// bound T; every pass replays the identical committed update stream and
// the identical client read programs through the real server + client
// runtime, so the only varying factor is the cache policy. Two series:
//
//   - memory-cache: the in-memory quasi-cache alone. A mid-run kill -9
//     loses the whole inventory; the restarted client re-listens for
//     everything.
//   - persistent-cache: the same cache backed by the qcache disk tier.
//     After the same kill -9 the restarted client revalidates its
//     recovered inventory off the air — no data frame is re-listened
//     for an entry that is still within its bound.
//
// Measured per T: cache hit ratio, data+control frames listened per
// committed transaction (the battery cost), restart ratio, the maximum
// staleness any validated read was served at (must be bounded by T),
// and the crash column — pre-crash inventory and the fraction of it
// revalidated after restart.

// QuasiConfig shapes a QuasiCurrency run. The zero value means the
// full-size run (n = 256, 240 cycles, 24 clients); tests shrink
// Objects, Cycles, Clients and CurrencyBounds. Every client is killed
// (no shutdown; its store is closed, which logs what the next cycle
// edge would have) after cycle Cycles/2 and restarted from its store,
// kept in a temp directory that is removed when the run ends.
type QuasiConfig struct {
	// Objects is the database size n.
	Objects int
	// Cycles is the broadcast run length.
	Cycles int
	// Clients is the number of independent read-only clients per pass.
	Clients int
	// CurrencyBounds are the x-values T to sweep; 0 is the no-cache
	// floor and must be present for the restart-ratio comparison.
	CurrencyBounds []int
}

// The server update rate and the reads per client transaction (one per
// cycle, so a transaction spans quasiTxnReads cycles and restarts are
// real). The read and the write access law share replayTheta but are
// mirrored — the read-hottest objects are the write-coldest — which is
// the regime quasi-caching targets: Section 3.3 tailors invalidation
// intervals per object precisely because caching pays off for popular
// items that change slowly, not for the fast-changing ones.
const (
	quasiCommitsPerCycle = 3
	quasiTxnReads        = 3
)

func (c QuasiConfig) normalized() QuasiConfig {
	if c.Objects == 0 {
		c.Objects = 256
	}
	if c.Cycles == 0 {
		c.Cycles = 240
	}
	if c.Clients == 0 {
		c.Clients = 24
	}
	if len(c.CurrencyBounds) == 0 {
		c.CurrencyBounds = []int{0, 1, 2, 4, 8, 16}
	}
	return c
}

// Series labels of the quasi-caching figure.
const (
	QuasiSeriesMemory     = "memory-cache"
	QuasiSeriesPersistent = "persistent-cache"
)

// QuasiMetrics is one series' measurements at one currency bound.
type QuasiMetrics struct {
	// HitRatio is cache hits over validated reads.
	HitRatio float64
	// FramesPerCommit is frames listened (one control frame per cycle
	// seen plus one data frame per off-the-air read) per committed
	// transaction.
	FramesPerCommit float64
	// RestartRatio is transaction restarts per commit.
	RestartRatio float64
	// MaxStaleness is the largest cycle-age any validated read was
	// served at — the currency bound holding means MaxStaleness <= T.
	MaxStaleness cmatrix.Cycle
	// PreCrashInventory is the number of store entries alive at the
	// kill; RecoveredRatio is the fraction of them revalidated off the
	// air after restart without re-listening to any data frame. Both
	// are zero for the memory series (nothing survives).
	PreCrashInventory int64
	RecoveredRatio    float64
	// Commits, Restarts, Reads and Hits are the raw counts.
	Commits, Restarts, Reads, Hits int64
	// Obs is the pass's registry snapshot (client_* counters).
	Obs obs.Snapshot
}

// QuasiPoint is one currency bound with both series.
type QuasiPoint struct {
	T      int
	Series map[string]QuasiMetrics
}

// planQuasi draws the study's workload: per-cycle commit write-sets
// under the mirrored write law and each client's planned read sets.
func planQuasi(cfg QuasiConfig, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	zipf := airsched.NewZipfPicker(cfg.Objects, replayTheta)
	readPick := func() int { return zipf.Pick(rng.Float64()) }
	// The mirrored write law: write heat concentrates on the tail of
	// read popularity.
	writePick := func() int { return cfg.Objects - 1 - zipf.Pick(rng.Float64()) }
	return newPlan(cfg.Cycles, quasiCommitsPerCycle, cfg.Clients,
		func() plannedCommit {
			return plannedCommit{writeSet: pickDistinct(1+rng.Intn(2), writePick)}
		},
		// Each client reads inside a small zipf-drawn working set (locality
		// is what makes a cache worth carrying), and every transaction also
		// reads one volatile object from the write-hot law — the
		// fast-changing item that sets the genuine restart floor and that
		// the per-object currency tailoring serves fresh-only.
		func() func() []int {
			wset := pickDistinct(4*quasiTxnReads, readPick)
			return func() []int {
				rest := pickDistinct(quasiTxnReads-1, func() int { return wset[rng.Intn(len(wset))] })
				// The volatile read comes first: under the pairwise read
				// condition only an earlier-read object overwritten before a
				// later read aborts, so a leading fast-changing read is what
				// genuinely exposes the transaction to the update stream.
				var v int
				for dup := true; dup; {
					v = writePick()
					dup = false
					for _, o := range rest {
						dup = dup || o == v
					}
				}
				return append([]int{v}, rest...)
			}
		})
}

// quasiClient drives one client's planned transactions through the
// real client runtime in cycle lockstep.
type quasiClient struct {
	cursor
	c   *client.Client
	txn *client.ReadTxn
}

func (q *quasiClient) step() (committed, restarted bool) {
	return q.cursor.step(
		func(obj int) bool {
			if q.txn == nil {
				q.txn = q.c.BeginReadOnly()
			}
			_, err := q.txn.Read(obj)
			return err == nil
		},
		func() bool {
			q.txn.Commit()
			return true
		},
		func() { q.txn = nil })
}

// runQuasiPass replays the shared stream at one (series, T) point.
func runQuasiPass(cfg QuasiConfig, stream *plan, series string, T int, dir string) (QuasiMetrics, error) {
	srv, err := server.New(server.Config{
		Objects:    cfg.Objects,
		ObjectBits: 64,
		Algorithm:  protocol.FMatrix,
	})
	if err != nil {
		return QuasiMetrics{}, err
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	var curCycle cmatrix.Cycle
	var maxStale cmatrix.Cycle
	observe := func(obj int, cycle cmatrix.Cycle, cacheHit, accepted bool) {
		if accepted && curCycle > cycle && curCycle-cycle > maxStale {
			maxStale = curCycle - cycle
		}
	}

	// Per-object currency tailoring (Section 3.3: "the invalidation
	// interval can be tailored on a per client per object basis"): the
	// write-hottest eighth of the database is served fresh-only, so the
	// cache holds exactly the slow-changing items it can serve without
	// inflating the restart ratio over the no-cache floor.
	hotCut := cfg.Objects - max(cfg.Objects/8, 1)
	currencyOf := func(obj int) cmatrix.Cycle {
		if obj >= hotCut {
			return 0
		}
		return cmatrix.Cycle(T)
	}

	persistent := series == QuasiSeriesPersistent && T > 0
	stores := make([]*qcache.Store, cfg.Clients)
	defer func() {
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}()
	newClient := func(i int) (*quasiClient, error) {
		ccfg := client.Config{
			Algorithm:       protocol.FMatrix,
			CacheCurrency:   cmatrix.Cycle(T),
			CacheCurrencyOf: currencyOf,
			ObserveRead:     observe,
			Obs:             reg,
			ClientID:        int32(i),
		}
		if persistent {
			if stores[i] == nil {
				st, err := qcache.Open(filepath.Join(dir, fmt.Sprintf("cli-%d", i)))
				if err != nil {
					return nil, err
				}
				stores[i] = st
			}
			ccfg.Store = stores[i]
		}
		return &quasiClient{
			cursor: cursor{txns: stream.txns[i]},
			c:      client.New(ccfg, srv.Subscribe(cfg.Cycles+8)),
		}, nil
	}

	clients := make([]*quasiClient, cfg.Clients)
	for i := range clients {
		if clients[i], err = newClient(i); err != nil {
			return QuasiMetrics{}, err
		}
	}

	var commits, restarts, preCrash, recovered int64
	cRevalidated := reg.Counter("client_cache_revalidated")
	value := make([]byte, 8)
	for c := 1; c <= cfg.Cycles; c++ {
		for _, cm := range stream.commits[c-1] {
			txn := srv.Begin()
			for _, obj := range cm.writeSet {
				binary.LittleEndian.PutUint64(value, uint64(c)<<16|uint64(obj))
				if err := txn.Write(obj, value); err != nil {
					return QuasiMetrics{}, err
				}
			}
			if err := txn.Commit(); err != nil {
				return QuasiMetrics{}, err
			}
		}
		srv.StartCycle()
		curCycle = cmatrix.Cycle(c)
		for _, q := range clients {
			q.c.AwaitCycle()
		}
		for _, q := range clients {
			com, res := q.step()
			if com {
				commits++
			}
			if res {
				restarts++
			}
		}

		// The kill: clients vanish mid-flight (an in-progress transaction
		// is a restart), and are rebuilt from whatever their tier kept —
		// the persistent series reopens its store and revalidates the
		// recovered inventory off the air, the memory series starts cold.
		if c == cfg.Cycles/2 {
			before := cRevalidated.Load()
			for i, q := range clients {
				if q.txn != nil {
					restarts++
				}
				q.c.Cancel()
				if stores[i] != nil {
					preCrash += int64(stores[i].Len())
					if err := stores[i].Close(); err != nil {
						return QuasiMetrics{}, err
					}
					stores[i] = nil
				}
				nq, err := newClient(i)
				if err != nil {
					return QuasiMetrics{}, err
				}
				nq.cursor.txn = q.cursor.txn
				clients[i] = nq
				// The fresh subscription replays the current cycle; consuming
				// it here both realigns the lockstep and runs the inventory
				// revalidation before any read is attempted.
				nq.c.AwaitCycle()
			}
			recovered = cRevalidated.Load() - before
		}
	}

	stats := reg.Snapshot()
	reads := stats.Counters["client_reads"]
	hits := stats.Counters["client_cache_hits"]
	frames := stats.Counters["client_cycles_seen"] + reads - hits
	m := QuasiMetrics{
		MaxStaleness:      maxStale,
		PreCrashInventory: preCrash,
		Commits:           commits,
		Restarts:          restarts,
		Reads:             reads,
		Hits:              hits,
		Obs:               stats,
	}
	if reads > 0 {
		m.HitRatio = float64(hits) / float64(reads)
	}
	if commits > 0 {
		m.FramesPerCommit = float64(frames) / float64(commits)
		m.RestartRatio = float64(restarts) / float64(commits)
	}
	if preCrash > 0 {
		m.RecoveredRatio = float64(recovered) / float64(preCrash)
	}
	return m, nil
}

// QuasiCurrency runs the persistent quasi-caching sweep.
func QuasiCurrency(opt Options, cfg QuasiConfig) ([]*QuasiPoint, error) {
	opt = opt.normalized()
	cfg = cfg.normalized()
	if err := checkReplayConfig(idQuasi, cfg, cfg.Objects, quasiTxnReads, cfg.Clients); err != nil {
		return nil, err
	}
	if cfg.Cycles < 2 {
		return nil, fmt.Errorf("experiments: crash cycle %d outside run of %d cycles", cfg.Cycles/2, cfg.Cycles)
	}
	dir, err := os.MkdirTemp("", "bcquasi-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	stream := planQuasi(cfg, opt.Seed)
	var out []*QuasiPoint
	for _, T := range cfg.CurrencyBounds {
		point := &QuasiPoint{T: T, Series: map[string]QuasiMetrics{}}
		for _, series := range []string{QuasiSeriesMemory, QuasiSeriesPersistent} {
			m, err := runQuasiPass(cfg, stream, series, T, filepath.Join(dir, fmt.Sprintf("t%d", T)))
			if err != nil {
				return nil, err
			}
			point.Series[series] = m
		}
		mem, per := point.Series[QuasiSeriesMemory], point.Series[QuasiSeriesPersistent]
		opt.Progress("quasi: T=%d memory hit=%.3f frames/commit=%.2f restart=%.4f | persistent hit=%.3f frames/commit=%.2f restart=%.4f recovered %.0f%% of %d",
			T, mem.HitRatio, mem.FramesPerCommit, mem.RestartRatio,
			per.HitRatio, per.FramesPerCommit, per.RestartRatio,
			per.RecoveredRatio*100, per.PreCrashInventory)
		out = append(out, point)
	}
	return out, nil
}

// QuasiTable renders the sweep as an aligned table.
func QuasiTable(points []*QuasiPoint) string {
	var b strings.Builder
	b.WriteString("Persistent quasi-caching under a currency bound (Section 3.3, DESIGN.md §13)\n")
	fmt.Fprintf(&b, "%-6s%-19s%-11s%-15s%-11s%-12s%s\n",
		"T", "series", "hit", "frames/commit", "restart", "staleness", "recovered")
	for _, p := range points {
		for _, lbl := range []string{QuasiSeriesMemory, QuasiSeriesPersistent} {
			m := p.Series[lbl]
			rec := "-"
			if m.PreCrashInventory > 0 {
				rec = fmt.Sprintf("%.0f%% of %d", m.RecoveredRatio*100, m.PreCrashInventory)
			}
			fmt.Fprintf(&b, "%-6d%-19s%-11.4f%-15.2f%-11.4f%-12d%s\n",
				p.T, lbl, m.HitRatio, m.FramesPerCommit, m.RestartRatio, m.MaxStaleness, rec)
		}
	}
	return b.String()
}

// QuasiBench converts the sweep to the shared BENCH_<id>.json schema: x
// is the currency bound T, the crash-recovery column rides in each
// series' values.
func QuasiBench(points []*QuasiPoint) BenchExperiment {
	head := BenchExperiment{
		ID:     idQuasi,
		Title:  "Persistent quasi-caching under a currency bound",
		XLabel: "currency bound T (cycles)",
		Metric: "cache hit ratio",
		Labels: []string{QuasiSeriesMemory, QuasiSeriesPersistent},
	}
	return project(head, points,
		func(p *QuasiPoint) float64 { return float64(p.T) },
		func(p *QuasiPoint, lbl string) BenchMetrics {
			m := p.Series[lbl]
			return BenchMetrics{
				RestartRatio: finiteOrNil(m.RestartRatio),
				TuningMean:   finiteOrNil(m.FramesPerCommit),
				Commits:      m.Commits,
				CacheHits:    m.Hits,
				Values: map[string]float64{
					"hit_ratio":          m.HitRatio,
					"frames_per_commit":  m.FramesPerCommit,
					"max_staleness":      float64(m.MaxStaleness),
					"precrash_inventory": float64(m.PreCrashInventory),
					"recovered_ratio":    m.RecoveredRatio,
				},
				Obs: &m.Obs,
			}
		})
}
