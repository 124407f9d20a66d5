package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// The grouped-bandwidth study: at database sizes where the full n×n
// F-Matrix is unbroadcastable (n ≥ 10⁵ means n²·TS ≈ 20 Gbit of
// control per cycle at TS=16), how much concurrency does the n×g
// grouped matrix of Section 3.2.2 give back per control bit? Each pass
// replays one committed update stream through a grouped server.Server
// — its Txns commit the stream, StartCycle publishes MC, and the
// server's own heat policy regroups — prices every cycle's control with
// the exact BCG1 frame size, and measures client restart ratios with
// the same conjunctive validators the runtime uses. Three series:
//
//   - fmatrix-dense: validation against the exact C(i,j) — the restart
//     floor — published by a server over singleton groups (g = n, where
//     MC is C) and priced at the analytic n²·TS dense broadcast;
//   - grouped-static: a fixed uniform partition into g groups;
//   - grouped-adaptive: the same g, but the server regroups by write
//     heat (Config.RegroupEvery) at deterministic epochs, so
//     hot objects get near-F-Matrix precision.

// GroupedConfig shapes a GroupedBandwidth run. The zero value means the
// paper-scale run (n = 10⁵, 400 cycles, 64 clients); tests shrink
// Objects, Cycles, Clients and GroupCounts. The workload itself is fixed
// by the replay constants (replay.go).
type GroupedConfig struct {
	// Objects is the database size n.
	Objects int
	// Cycles is the broadcast run length.
	Cycles int
	// Clients is the number of independent read-only clients per series.
	Clients int
	// GroupCounts are the x-values g to sweep.
	GroupCounts []int
}

// The adaptive series' regroup period in cycles.
const groupedRegroupEvery = 25

func (c GroupedConfig) normalized() GroupedConfig {
	if c.Objects == 0 {
		c.Objects = 100_000
	}
	if c.Cycles == 0 {
		c.Cycles = 400
	}
	if c.Clients == 0 {
		c.Clients = 64
	}
	if len(c.GroupCounts) == 0 {
		c.GroupCounts = []int{256, 1024, 4096, 16384, 65536}
	}
	return c
}

// Series labels of the grouped-bandwidth figure.
const (
	GroupedSeriesStatic   = "grouped-static"
	GroupedSeriesAdaptive = "grouped-adaptive"
	GroupedSeriesDense    = "fmatrix-dense"
)

// GroupedMetrics is one series' measurements at one group count.
type GroupedMetrics struct {
	// ControlBitsPerCycle is the mean broadcast control cost, priced
	// with the exact BCG1 frame size (partition amortized over the
	// epochs that actually ship it) — or n²·TS for the dense series.
	ControlBitsPerCycle float64
	// BandwidthRatio is ControlBitsPerCycle over the dense series'.
	BandwidthRatio float64
	// RestartRatio is restarts per committed transaction.
	RestartRatio float64
	// Commits and Restarts are the raw client counts behind the ratio.
	Commits  int64
	Restarts int64
	// Regroups and RegroupChurn count adaptive repartition epochs and
	// how many objects they moved (zero for the other series).
	Regroups     int64
	RegroupChurn int64
	// Obs is the pass's registry snapshot (exp_grouped_* counters).
	Obs obs.Snapshot
}

// GroupedPoint is one group count with all three series.
type GroupedPoint struct {
	Groups int
	Series map[string]GroupedMetrics
}

// planGrouped draws the study's workload: zipf-skewed two-read,
// two-write commits and zipf-skewed client read sets. Identical across
// series and group counts, so the only varying factor is the control
// representation.
func planGrouped(cfg GroupedConfig, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	zipf := airsched.NewZipfPicker(cfg.Objects, replayTheta)
	pick := func() int { return zipf.Pick(rng.Float64()) }
	return newPlan(cfg.Cycles, replayCommitsPerCycle, cfg.Clients,
		func() plannedCommit {
			return plannedCommit{
				writeSet: pickDistinct(2, pick),
				readSet:  pickDistinct(2, pick),
			}
		},
		func() func() []int {
			return func() []int { return pickDistinct(replayTxnReads, pick) }
		})
}

// groupedClient is one read-only client replaying its planned
// transactions through a conjunctive validator.
type groupedClient struct {
	cursor
	v protocol.ConjunctiveValidator
}

func (c *groupedClient) step(snap protocol.Snapshot, cur cmatrix.Cycle) (committed, restarted bool) {
	return c.cursor.step(
		func(obj int) bool { return c.v.TryRead(snap, obj, cur) },
		func() bool { return true },
		c.v.Reset)
}

// runGroupedPass replays the shared stream through one grouped server
// and returns the pass's measurements.
func runGroupedPass(cfg GroupedConfig, stream *plan, series string, groups int) (GroupedMetrics, error) {
	n := cfg.Objects
	reg := obs.NewRegistry()
	cBits := reg.Counter("exp_grouped_control_bits")
	cChurn := reg.Counter("exp_grouped_regroup_churn")
	cRegroups := reg.Counter("exp_grouped_regroups")
	cCommits := reg.Counter("exp_grouped_commits")
	cRestarts := reg.Counter("exp_grouped_restarts")

	// The dense series runs over singleton groups, whose published MC is
	// the exact C; the adaptive series lets the server regroup by heat.
	scfg := server.Config{Objects: n, ObjectBits: 64, TimestampBits: replayTimestampBits,
		Algorithm: protocol.Grouped, Groups: groups}
	if series == GroupedSeriesAdaptive {
		scfg.RegroupEvery = groupedRegroupEvery
	}
	srv, err := server.New(scfg)
	if err != nil {
		return GroupedMetrics{}, err
	}
	defer srv.Close()
	srvChurn := srv.Obs().Counter("server_regroup_churn")

	clients := make([]*groupedClient, cfg.Clients)
	for i := range clients {
		clients[i] = &groupedClient{cursor: cursor{txns: stream.txns[i]}}
	}

	denseCycleBits := int64(n) * int64(n) * int64(replayTimestampBits)
	measuredCycles := 0
	epoch := srv.RegroupEpoch()
	for c := 1; c <= cfg.Cycles; c++ {
		// The first quarter is warmup: commits, restarts and control bits
		// count only once the adaptive partition has seen real heat.
		measured := c >= cfg.Cycles/4
		if measured {
			measuredCycles++
		}
		churn := srvChurn.Load()
		cb := srv.StartCycle()
		withPartition := c == 1
		if e := srv.RegroupEpoch(); e != epoch {
			epoch, withPartition = e, true
			if measured {
				cChurn.Add(srvChurn.Load() - churn)
				cRegroups.Inc()
			}
		}

		// Price the published cycle-start control on the wire.
		if measured {
			if series == GroupedSeriesDense {
				cBits.Add(denseCycleBits)
			} else {
				cBits.Add(wire.GroupedCycleBits(cb.Grouped, 0, replayTimestampBits, withPartition))
			}
		}

		// Clients read against the published control, then the cycle's
		// commits take effect for the next cycle.
		for _, cl := range clients {
			committed, restarted := cl.step(cb.Grouped, cb.Number)
			if committed && measured {
				cCommits.Inc()
			}
			if restarted && measured {
				cRestarts.Inc()
			}
		}
		// The conjunctive validators keep no snapshot: once released, the
		// cycle's MC storage may take a later cycle's commits.
		cb.Release()
		for _, cm := range stream.commits[c-1] {
			txn := srv.Begin()
			for _, obj := range cm.readSet {
				_, _ = txn.Read(obj) // in range on an open server: cannot fail
			}
			for _, obj := range cm.writeSet {
				_ = txn.Write(obj, nil) // in range, and nil fits any slot
			}
			if err := txn.Commit(); err != nil {
				return GroupedMetrics{}, fmt.Errorf("experiments: grouped replay cycle %d: %w", c, err)
			}
		}
	}

	m := GroupedMetrics{
		ControlBitsPerCycle: float64(cBits.Load()) / float64(max(measuredCycles, 1)),
		Commits:             cCommits.Load(),
		Restarts:            cRestarts.Load(),
		Regroups:            cRegroups.Load(),
		RegroupChurn:        cChurn.Load(),
		Obs:                 reg.Snapshot(),
	}
	if m.Commits > 0 {
		m.RestartRatio = float64(m.Restarts) / float64(m.Commits)
	}
	return m, nil
}

// GroupedBandwidth runs the restart-ratio-vs-control-bandwidth
// analysis. The dense series is group-count independent, so it runs
// once (over singleton groups, whose MC is the exact C) and is repeated
// into every point for side-by-side reading. A replay commit the server
// refuses is a bug, returned as the error.
func GroupedBandwidth(opt Options, cfg GroupedConfig) ([]*GroupedPoint, error) {
	opt = opt.normalized()
	cfg = cfg.normalized()
	if err := checkReplayConfig(idGrouped, cfg, cfg.Objects, replayTxnReads, cfg.Clients); err != nil {
		return nil, err
	}
	for _, g := range cfg.GroupCounts {
		if g < 1 || g > cfg.Objects {
			return nil, fmt.Errorf("experiments: group count %d out of range [1, %d]", g, cfg.Objects)
		}
	}

	stream := planGrouped(cfg, opt.Seed)
	dense, err := runGroupedPass(cfg, stream, GroupedSeriesDense, cfg.Objects)
	if err != nil {
		return nil, err
	}
	dense.BandwidthRatio = 1
	opt.Progress("grouped: n=%d dense floor restart=%.4f at %.3g bits/cycle",
		cfg.Objects, dense.RestartRatio, dense.ControlBitsPerCycle)

	var out []*GroupedPoint
	for _, g := range cfg.GroupCounts {
		p := &GroupedPoint{Groups: g, Series: map[string]GroupedMetrics{GroupedSeriesDense: dense}}
		for _, series := range []string{GroupedSeriesStatic, GroupedSeriesAdaptive} {
			m, err := runGroupedPass(cfg, stream, series, g)
			if err != nil {
				return nil, err
			}
			if dense.ControlBitsPerCycle > 0 {
				m.BandwidthRatio = m.ControlBitsPerCycle / dense.ControlBitsPerCycle
			}
			p.Series[series] = m
		}
		out = append(out, p)
		static, adaptive := p.Series[GroupedSeriesStatic], p.Series[GroupedSeriesAdaptive]
		opt.Progress("grouped: g=%d static restart=%.4f (%.2e of dense bits) adaptive restart=%.4f (%.2e, %d regroups, churn %d)",
			g, static.RestartRatio, static.BandwidthRatio,
			adaptive.RestartRatio, adaptive.BandwidthRatio,
			adaptive.Regroups, adaptive.RegroupChurn)
	}
	return out, nil
}

// GroupedTable renders the analysis as an aligned table.
func GroupedTable(points []*GroupedPoint) string {
	var b strings.Builder
	b.WriteString("Grouped control bandwidth vs restart ratio (Section 3.2.2 at scale)\n")
	fmt.Fprintf(&b, "%-9s%-19s%-21s%-13s%-11s%s\n",
		"groups", "series", "ctrl bits/cycle", "of dense", "restart", "regroups(churn)")
	for _, p := range points {
		for _, lbl := range []string{GroupedSeriesDense, GroupedSeriesStatic, GroupedSeriesAdaptive} {
			m := p.Series[lbl]
			fmt.Fprintf(&b, "%-9d%-19s%-21.4g%-13s%-11.4f%s\n",
				p.Groups, lbl, m.ControlBitsPerCycle,
				fmt.Sprintf("%.3g", m.BandwidthRatio), m.RestartRatio,
				fmt.Sprintf("%d(%d)", m.Regroups, m.RegroupChurn))
		}
	}
	return b.String()
}

// GroupedBench converts the analysis to the shared BENCH_<id>.json
// schema: x is the group count, restart_ratio carries over, and the
// byte/churn accounting rides in each series' obs snapshot.
func GroupedBench(points []*GroupedPoint) BenchExperiment {
	head := BenchExperiment{
		ID:     idGrouped,
		Title:  "Grouped control bandwidth vs restart ratio",
		XLabel: "groups g",
		Metric: "restart ratio",
		Labels: []string{GroupedSeriesDense, GroupedSeriesStatic, GroupedSeriesAdaptive},
	}
	return project(head, points,
		func(p *GroupedPoint) float64 { return float64(p.Groups) },
		func(p *GroupedPoint, lbl string) BenchMetrics {
			m := p.Series[lbl]
			return BenchMetrics{
				RestartRatio: finiteOrNil(m.RestartRatio),
				Commits:      m.Commits,
				Obs:          &m.Obs,
			}
		})
}
