package shard

import (
	"fmt"
	"net"
	"strconv"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/server"
)

// FleetConfig describes an in-process sharded deployment: the single
// logical database plus how to cut it.
type FleetConfig struct {
	// Base is the logical server configuration. Objects is the global
	// database size n; per-shard servers inherit Algorithm, ObjectBits,
	// TimestampBits, Audit, VerifySample and RegroupEvery, with Objects,
	// InitialValues and Groups projected onto each shard. Base.Obs and
	// Base.Trace are ignored: fleet shards are untraced and ObsSnapshot
	// is the fleet's observability.
	Base server.Config
	// Seed feeds the hashring placement.
	Seed int64
	// Shards is the shard count k (>= 1).
	Shards int
	// Vnodes is the ring's virtual-node count per shard (0 = default).
	Vnodes int
}

// Fleet is k per-shard servers behind one Mapping plus the coordinator
// that stitches cross-shard update transactions back together. Each
// shard broadcasts its own program and control columns on its own
// channel, on one cycle clock: StartCycle is the fleet's one edge.
type Fleet struct {
	m     *Mapping
	nodes []*server.Server
	regs  []*obs.Registry
	coord *Coordinator
}

// NewFleet builds the mapping, the per-shard servers, and the
// coordinator.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: fleet needs >= 1 shard, got %d", cfg.Shards)
	}
	if cfg.Base.Objects < cfg.Shards {
		return nil, fmt.Errorf("shard: %d objects cannot cover %d shards", cfg.Base.Objects, cfg.Shards)
	}
	if cfg.Base.Program != nil {
		return nil, fmt.Errorf("shard: airsched programs are per-shard; build them against each shard's layout instead of FleetConfig.Base")
	}
	m := NewMapping(NewRing(cfg.Seed, cfg.Shards, cfg.Vnodes), cfg.Base.Objects)
	f := &Fleet{m: m}
	for s := 0; s < cfg.Shards; s++ {
		sc := cfg.Base
		sc.Objects = m.Size(s)
		sc.Obs = obs.NewRegistry()
		sc.Trace = nil
		if sc.Groups > sc.Objects {
			sc.Groups = sc.Objects
		}
		if cfg.Base.InitialValues != nil {
			vals := make([][]byte, sc.Objects)
			for local, obj := range m.Globals(s) {
				if obj < len(cfg.Base.InitialValues) {
					vals[local] = cfg.Base.InitialValues[obj]
				}
			}
			sc.InitialValues = vals
		}
		node, err := server.New(sc)
		if err != nil {
			for _, n := range f.nodes {
				n.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		f.nodes = append(f.nodes, node)
		f.regs = append(f.regs, sc.Obs)
	}
	coord, err := NewCoordinator(m, f.nodes)
	if err != nil {
		for _, n := range f.nodes {
			n.Close()
		}
		return nil, err
	}
	f.coord = coord
	return f, nil
}

// Mapping returns the fleet's object placement.
func (f *Fleet) Mapping() *Mapping { return f.m }

// Shards returns the shard count k.
func (f *Fleet) Shards() int { return len(f.nodes) }

// Node returns shard s's server.
func (f *Fleet) Node(s int) *server.Server { return f.nodes[s] }

// Coordinator returns the fleet's cross-shard commit coordinator.
func (f *Fleet) Coordinator() *Coordinator { return f.coord }

// Subscribe opens a subscription to shard s's broadcast channel.
func (f *Fleet) Subscribe(s, buffer int) *bcast.Subscription {
	return f.nodes[s].Subscribe(buffer)
}

// StartCycle is the fleet's cycle edge, server.StartCycleAcross over
// the shards in shard order, so every projection of a cross-shard
// commit carries one commit cycle. It returns the per-shard cycles, the
// caller holding one count on each (server.StartCycleAcross).
func (f *Fleet) StartCycle() []*bcast.CycleBroadcast {
	out := make([]*bcast.CycleBroadcast, len(f.nodes))
	server.StartCycleAcross(f.nodes, out)
	return out
}

// ObsSnapshot aggregates one scrape for the whole fleet: the
// coordinator's metrics and every shard's server metrics summed under
// their plain names (fleet totals), plus each shard's metrics repeated
// under a shard<k>_ prefix so per-shard behavior stays visible.
func (f *Fleet) ObsSnapshot() obs.Snapshot {
	snap := f.coord.Obs().Snapshot()
	for s, reg := range f.regs {
		per := reg.Snapshot()
		snap = snap.Merge(per).Merge(per.Prefixed(fmt.Sprintf("shard%d_", s)))
	}
	return snap
}

// Close shuts every shard down.
func (f *Fleet) Close() {
	for _, n := range f.nodes {
		n.Close()
	}
}

// Addr is the fleet's listen plan, the deployment contract bcserver
// and bcclient must agree on: given shard 0's address for one role
// (broadcast channel or uplink), shard s listens for that
// role 2s ports higher. The two roles interleave, so a base pair on
// adjacent ports (the default 7070/7071) stays collision-free at any k.
func Addr(base string, s int) (string, error) {
	host, port, err := net.SplitHostPort(base)
	if err != nil {
		return "", err
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("address %q needs a numeric port to derive per-shard ports: %v", base, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+2*s)), nil
}
