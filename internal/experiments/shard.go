package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/shard"
	"broadcastcc/internal/wire"
)

// The cluster-sharding study: at n = 10⁵, what does hashring-
// partitioning the database over k broadcast channels buy per channel,
// and what does a cross-shard commit cost? One committed
// update stream is replayed against k ∈ {1, 2, 4, 8} deployments of the
// same grouped control representation — each shard maintains an
// (n/k)×g MC over its local objects, applying commits it can validate
// locally with the exact Theorem 2 rule and the others with the
// conservative diagonal-bounded rule — and read-only clients
// validate against the per-shard snapshots plus the Router's
// cross-shard cycle-alignment check. Placement hashes the key-prefix
// entity (shard.NewPrefixMapping), so the shardAffinity fraction of
// transactions that confine themselves to one entity stay single-shard
// at every k — the co-location a range-sharded deployment is built
// around — while the scattered remainder pays the cross-shard
// machinery. Three effects trade off:
//
//   - per-channel control bandwidth falls ~k× (each channel ships an
//     (n/k)×(g/k) MC — its proportional slice of the k = 1 group
//     budget, holding objects-per-group constant so every deployment
//     runs the same tuning);
//   - cross-shard commits pay the conservative ApplyRemote on write
//     shards that cannot see the whole read set, and multi-shard read
//     sets pay the alignment check — both push restarts up.
//
// The k = 1 point is the unsharded floor: one channel, exact local
// application, no alignment, bit-identical to a single logical server.

// ShardConfig shapes a ShardStudy run. The zero value means the
// paper-scale run (n = 10⁵, 400 cycles, 64 clients); tests shrink
// Objects, Cycles, Clients and ShardCounts. The workload itself is fixed
// by the replay constants (replay.go) and the placement constants below.
type ShardConfig struct {
	// Objects is the global database size n.
	Objects int
	// Cycles is the broadcast run length.
	Cycles int
	// Clients is the number of independent read-only clients per pass.
	Clients int
	// ShardCounts are the x-values k to sweep; the first must be 1 (the
	// unsharded floor every other point is normalized against).
	ShardCounts []int
}

const (
	// shardGroups is the fleet-wide group budget g: each shard's channel
	// carries its proportional slice (g × n_s/n groups), keeping
	// objects-per-group — the grouping tuning — constant across shard
	// counts.
	shardGroups = 256
	// shardEntityObjects is the key-prefix entity size: the ring places
	// contiguous runs of this many object ids together (see
	// shard.NewPrefixMapping), so transactions confined to one entity
	// stay single-shard at every k.
	shardEntityObjects = 64
	// shardAffinity is the probability a transaction (uplink commit or
	// client read set) confines itself to a single entity; the rest
	// scatter across the whole database and almost surely cross shards.
	shardAffinity = 0.9
)

func (c ShardConfig) normalized() ShardConfig {
	if c.Objects == 0 {
		c.Objects = 100_000
	}
	if c.Cycles == 0 {
		c.Cycles = 400
	}
	if c.Clients == 0 {
		c.Clients = 64
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4, 8}
	}
	return c
}

// ShardSeries is the single series label of the shard figure.
const ShardSeries = "sharded-grouped"

// ShardMetrics is one deployment's measurements at one shard count.
type ShardMetrics struct {
	// ControlBitsPerChannel is the mean per-cycle control cost of one
	// shard's channel, priced with the exact BCG1 frame size and
	// averaged over the k channels.
	ControlBitsPerChannel float64
	// ChannelRatio is ControlBitsPerChannel over the k = 1 floor's.
	ChannelRatio float64
	// RestartRatio is restarts per committed read-only transaction.
	RestartRatio float64
	// RestartVsFloor is RestartRatio over the k = 1 floor's.
	RestartVsFloor float64
	// CrossShardFrac is the fraction of uplink commits touching more
	// than one shard.
	CrossShardFrac float64
	// Commits and Restarts are the raw client counts behind the ratio.
	Commits  int64
	Restarts int64
	// Obs is the pass's registry snapshot (exp_shard_* counters).
	Obs obs.Snapshot
}

// ShardPoint is one shard count's measurements.
type ShardPoint struct {
	Shards  int
	Metrics ShardMetrics
}

// planShard draws the study's workload: the uplink commit stream (read
// and write sets over global object ids) and each client's planned read
// sets. Identical across shard counts, so the only varying factor is
// the deployment.
func planShard(cfg ShardConfig, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	zipf := airsched.NewZipfPicker(cfg.Objects, replayTheta)
	// Entity-affine picks: with probability shardAffinity a transaction
	// confines itself to one key-prefix entity (drawn zipf over full
	// entities, members uniform within), so the same stream is
	// single-shard for those transactions at every k under the prefix
	// placement; the rest scatter zipf over the whole database.
	fullEntities := cfg.Objects / shardEntityObjects
	var entityZipf *airsched.ZipfPicker
	if fullEntities > 1 {
		entityZipf = airsched.NewZipfPicker(fullEntities, replayTheta)
	}
	pickWithin := func(k int) []int {
		base := entityZipf.Pick(rng.Float64()) * shardEntityObjects
		return pickDistinct(k, func() int { return base + rng.Intn(shardEntityObjects) })
	}
	pickScattered := func(k int) []int {
		return pickDistinct(k, func() int { return zipf.Pick(rng.Float64()) })
	}
	return newPlan(cfg.Cycles, replayCommitsPerCycle, cfg.Clients,
		func() plannedCommit {
			if entityZipf != nil && rng.Float64() < shardAffinity {
				// Affine commit: reads and writes inside one entity.
				objs := pickWithin(4)
				return plannedCommit{writeSet: objs[:2], readSet: objs[2:]}
			} else if entityZipf != nil {
				// Cross-entity commit — the realistic cross-partition
				// shape: read one entity, write into another (usually a
				// different shard), rather than four unrelated keys.
				return plannedCommit{writeSet: pickWithin(2), readSet: pickWithin(2)}
			}
			objs := pickScattered(4)
			return plannedCommit{writeSet: objs[:2], readSet: objs[2:]}
		},
		func() func() []int {
			return func() []int {
				if entityZipf != nil && rng.Float64() < shardAffinity {
					return pickWithin(replayTxnReads)
				}
				return pickScattered(replayTxnReads)
			}
		})
}

// shardClient is one read-only client against a sharded deployment: one
// read per cycle through the shard the object lives on, one validator
// per shard (the Router's per-shard Theorem 1/2 validation), and the
// cross-shard cycle-alignment check at commit when the transaction
// touched more than one shard.
type shardClient struct {
	cursor
	m     *shard.Mapping
	vs    []protocol.ConjunctiveValidator
	reads []protocol.ReadAt // global ids with read cycles
}

func (c *shardClient) reset() {
	for s := range c.vs {
		c.vs[s].Reset()
	}
	c.reads = c.reads[:0]
}

func (c *shardClient) step(snaps []*cmatrix.Grouped, cur cmatrix.Cycle) (committed, crossShard, restarted bool) {
	committed, restarted = c.cursor.step(
		func(obj int) bool {
			s := c.m.ShardOf(obj)
			if !c.vs[s].TryRead(snaps[s], c.m.Local(obj), cur) {
				return false
			}
			c.reads = append(c.reads, protocol.ReadAt{Obj: obj, Cycle: cur})
			return true
		},
		// Commit: multi-shard read sets must admit one serialization point
		// at c* = cur — every older read's object must be unwritten since
		// it was read, judged on its shard's current (conservative grouped)
		// diagonal.
		func() bool {
			shards := map[int]bool{}
			for _, r := range c.reads {
				shards[c.m.ShardOf(r.Obj)] = true
			}
			crossShard = len(shards) > 1
			if crossShard {
				for _, r := range c.reads {
					s := c.m.ShardOf(r.Obj)
					li := c.m.Local(r.Obj)
					if r.Cycle < cur && snaps[s].Bound(li, li) >= r.Cycle {
						return false
					}
				}
			}
			return true
		},
		c.reset)
	return committed, committed && crossShard, restarted
}

// runShardPass replays the shared stream against one k-shard deployment
// and returns the pass's measurements.
func runShardPass(cfg ShardConfig, stream *plan, seed int64, k int) ShardMetrics {
	m := shard.NewPrefixMapping(shard.NewRing(seed, k, shard.DefaultVnodes), cfg.Objects, shardEntityObjects)
	reg := obs.NewRegistry()
	cBits := reg.Counter("exp_shard_control_bits")
	cCommits := reg.Counter("exp_shard_txn_commits")
	cRestarts := reg.Counter("exp_shard_txn_restarts")
	cCrossTxns := reg.Counter("exp_shard_txn_cross")
	cUplinks := reg.Counter("exp_shard_uplink_commits")
	cCross := reg.Counter("exp_shard_uplink_cross")
	cRemote := reg.Counter("exp_shard_remote_applies")

	controls := make([]*cmatrix.GroupedControl, k)
	for s := 0; s < k; s++ {
		// Hold the grouping TUNING — objects per group — constant
		// across deployments: each shard gets its proportional slice of
		// the k = 1 group budget, so every pass compares the same
		// control representation, just partitioned.
		ns := m.Size(s)
		gs := min(max(shardGroups*ns/cfg.Objects, 1), ns)
		controls[s] = cmatrix.NewGroupedControl(cmatrix.UniformPartition(ns, gs))
	}

	clients := make([]*shardClient, cfg.Clients)
	for i := range clients {
		clients[i] = &shardClient{cursor: cursor{txns: stream.txns[i]}, m: m, vs: make([]protocol.ConjunctiveValidator, k)}
	}

	measuredCycles := 0
	for c := 1; c <= cfg.Cycles; c++ {
		cyc := cmatrix.Cycle(c)
		measured := c >= cfg.Cycles/4 // warmup, as in the grouped study
		if measured {
			measuredCycles++
		}

		// Publish each channel's cycle-start control and price it.
		snaps := make([]*cmatrix.Grouped, k)
		for s := 0; s < k; s++ {
			snaps[s] = controls[s].Grouped()
			if measured {
				cBits.Add(wire.GroupedCycleBits(snaps[s], 0, replayTimestampBits, c == 1))
			}
		}

		for _, cl := range clients {
			committed, cross, restarted := cl.step(snaps, cyc)
			if measured {
				if committed {
					cCommits.Inc()
					if cross {
						cCrossTxns.Inc()
					}
				}
				if restarted {
					cRestarts.Inc()
				}
			}
		}

		// Uplink commits take effect for the next cycle on every shard
		// they write: the fleet has one cycle edge. A write shard
		// holding the whole read set applies the exact Theorem 2 rule;
		// any other the conservative diagonal-bounded rule.
		for _, cm := range stream.commits[c-1] {
			involved := map[int]bool{}
			perShardWrites := map[int][]int{}
			perShardReads := map[int][]int{}
			for _, obj := range cm.writeSet {
				s := m.ShardOf(obj)
				perShardWrites[s] = append(perShardWrites[s], m.Local(obj))
				involved[s] = true
			}
			for _, obj := range cm.readSet {
				s := m.ShardOf(obj)
				perShardReads[s] = append(perShardReads[s], m.Local(obj))
				involved[s] = true
			}
			for s, writes := range perShardWrites {
				if len(perShardReads[s]) == len(cm.readSet) {
					controls[s].Apply(perShardReads[s], writes, cyc)
				} else {
					controls[s].ApplyRemote(writes, cyc)
					if measured {
						cRemote.Inc()
					}
				}
			}
			if measured {
				cUplinks.Inc()
				if len(involved) > 1 {
					cCross.Inc()
				}
			}
		}
	}

	mtr := ShardMetrics{
		ControlBitsPerChannel: float64(cBits.Load()) / float64(max(measuredCycles, 1)) / float64(k),
		Commits:               cCommits.Load(),
		Restarts:              cRestarts.Load(),
		Obs:                   reg.Snapshot(),
	}
	if mtr.Commits > 0 {
		mtr.RestartRatio = float64(mtr.Restarts) / float64(mtr.Commits)
	}
	if up := cUplinks.Load(); up > 0 {
		mtr.CrossShardFrac = float64(cCross.Load()) / float64(up)
	}
	return mtr
}

// ShardStudy runs the per-channel-bandwidth-vs-restart analysis across
// the shard counts.
func ShardStudy(opt Options, cfg ShardConfig) ([]*ShardPoint, error) {
	opt = opt.normalized()
	cfg = cfg.normalized()
	if err := checkReplayConfig(idShard, cfg, cfg.Objects, replayTxnReads, cfg.Clients); err != nil {
		return nil, err
	}
	if cfg.ShardCounts[0] != 1 {
		return nil, fmt.Errorf("experiments: ShardCounts must start with the k=1 floor, got %v", cfg.ShardCounts)
	}
	for _, k := range cfg.ShardCounts {
		if k < 1 || k > cfg.Objects {
			return nil, fmt.Errorf("experiments: shard count %d out of range [1, %d]", k, cfg.Objects)
		}
	}

	stream := planShard(cfg, opt.Seed)
	var out []*ShardPoint
	var floor ShardMetrics
	for i, k := range cfg.ShardCounts {
		mtr := runShardPass(cfg, stream, opt.Seed, k)
		if i == 0 {
			floor = mtr
			mtr.ChannelRatio = 1
			mtr.RestartVsFloor = 1
		} else {
			if floor.ControlBitsPerChannel > 0 {
				mtr.ChannelRatio = mtr.ControlBitsPerChannel / floor.ControlBitsPerChannel
			}
			if floor.RestartRatio > 0 {
				mtr.RestartVsFloor = mtr.RestartRatio / floor.RestartRatio
			} else if mtr.RestartRatio == 0 {
				mtr.RestartVsFloor = 1
			}
		}
		out = append(out, &ShardPoint{Shards: k, Metrics: mtr})
		opt.Progress("shard: k=%d ctrl/channel=%.3g bits (%.3g of floor) restart=%.4f (%.2fx floor) cross=%.0f%%",
			k, mtr.ControlBitsPerChannel, mtr.ChannelRatio, mtr.RestartRatio, mtr.RestartVsFloor,
			100*mtr.CrossShardFrac)
	}
	return out, nil
}

// ShardTable renders the analysis as an aligned table.
func ShardTable(points []*ShardPoint) string {
	var b strings.Builder
	b.WriteString("Cluster sharding: per-channel control bandwidth vs restart ratio\n")
	fmt.Fprintf(&b, "%-8s%-22s%-11s%-11s%-12s%s\n",
		"shards", "ctrl bits/channel", "of floor", "restart", "vs floor", "cross-shard")
	for _, p := range points {
		m := p.Metrics
		fmt.Fprintf(&b, "%-8d%-22.4g%-11s%-11.4f%-12s%.0f%%\n",
			p.Shards, m.ControlBitsPerChannel, fmt.Sprintf("%.3g", m.ChannelRatio),
			m.RestartRatio, fmt.Sprintf("%.2fx", m.RestartVsFloor),
			100*m.CrossShardFrac)
	}
	return b.String()
}

// ShardBench converts the analysis to the shared BENCH_<id>.json
// schema: x is the shard count k, restart_ratio carries over, and the
// per-channel bandwidth and cross-shard accounting ride in the
// figure-specific values.
func ShardBench(points []*ShardPoint) BenchExperiment {
	head := BenchExperiment{
		ID:     idShard,
		Title:  "Cluster sharding: per-channel control bandwidth vs restart ratio",
		XLabel: "shards k",
		Metric: "restart ratio",
		Labels: []string{ShardSeries},
	}
	return project(head, points,
		func(p *ShardPoint) float64 { return float64(p.Shards) },
		func(p *ShardPoint, _ string) BenchMetrics {
			m := p.Metrics
			return BenchMetrics{
				RestartRatio: finiteOrNil(m.RestartRatio),
				Commits:      m.Commits,
				Values: map[string]float64{
					"ctrl_bits_per_channel": m.ControlBitsPerChannel,
					"channel_ratio":         m.ChannelRatio,
					"restart_vs_floor":      m.RestartVsFloor,
					"cross_shard_frac":      m.CrossShardFrac,
				},
				Obs: &m.Obs,
			}
		})
}
