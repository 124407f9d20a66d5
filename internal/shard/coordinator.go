package shard

import (
	"fmt"
	"time"

	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// Coordinator splits uplink update transactions across the fleet. A
// transaction whose reads and writes all land on one shard uses the
// shard's ordinary single-shot submit, which keeps k = 1 byte-identical
// to the unsharded server; one that spans shards commits through
// server.SubmitAcross, the same commit rule applied to every shard's
// projection under all of their locks, so it commits on every shard or
// on none.
type Coordinator struct {
	m     *Mapping
	nodes []*server.Server
	obs   *obs.Registry

	cCross    *obs.Counter
	cCommits  *obs.Counter
	cAborts   *obs.Counter
	hCommitNs *obs.Histogram
}

// NewCoordinator builds a coordinator over one server per shard, in
// shard order. Its metrics (shard_cross_total, shard_commits_total,
// shard_aborts_total, shard_commit_ns) go to a registry of its own,
// which Obs returns.
func NewCoordinator(m *Mapping, nodes []*server.Server) (*Coordinator, error) {
	if len(nodes) != m.Shards() {
		return nil, fmt.Errorf("shard: %d servers for %d shards", len(nodes), m.Shards())
	}
	c := &Coordinator{m: m, nodes: nodes, obs: obs.NewRegistry()}
	c.cCross = c.obs.Counter("shard_cross_total")
	c.cCommits = c.obs.Counter("shard_commits_total")
	c.cAborts = c.obs.Counter("shard_aborts_total")
	c.hCommitNs = c.obs.Histogram("shard_commit_ns", obs.Pow2Buckets(10, 22))
	return c, nil
}

// Obs returns the coordinator's metrics registry.
func (c *Coordinator) Obs() *obs.Registry { return c.obs }

// Mapping returns the placement the coordinator routes by.
func (c *Coordinator) Mapping() *Mapping { return c.m }

// split projects a global update request onto the fleet: per-shard
// requests in shard-local object ids, plus the ascending list of
// participating shards (any shard holding a read or a write). The
// written values are req's own: every shard call returns before
// SubmitUpdate does.
func (c *Coordinator) split(req protocol.UpdateRequest) (perShard []protocol.UpdateRequest, involved []int) {
	perShard = make([]protocol.UpdateRequest, c.m.Shards())
	touched := make([]bool, c.m.Shards())
	for _, r := range req.Reads {
		s := c.m.ShardOf(r.Obj)
		perShard[s].Reads = append(perShard[s].Reads, protocol.ReadAt{Obj: c.m.Local(r.Obj), Cycle: r.Cycle})
		touched[s] = true
	}
	for _, w := range req.Writes {
		s := c.m.ShardOf(w.Obj)
		perShard[s].Writes = append(perShard[s].Writes, protocol.ObjectWrite{Obj: c.m.Local(w.Obj), Value: w.Value})
		touched[s] = true
	}
	for s, t := range touched {
		if t {
			involved = append(involved, s)
		}
	}
	return perShard, involved
}

// SubmitUpdate routes one global update transaction: the single-shard
// fast path submits directly; anything spanning shards is one
// server.SubmitAcross over the involved shards in ascending shard id.
// nil means the transaction committed fleet-wide; any error means it
// committed nowhere.
//
// SubmitUpdate implements protocol.Uplink over global object ids, so a
// Router-side UpdateTxn can commit through a Coordinator exactly as an
// unsharded client commits through a server.
func (c *Coordinator) SubmitUpdate(req protocol.UpdateRequest) error {
	perShard, involved := c.split(req)
	var err error
	switch len(involved) {
	case 0:
		return nil // nothing read, nothing written
	case 1:
		s := involved[0]
		err = c.nodes[s].SubmitUpdate(perShard[s])
	default:
		c.cCross.Inc()
		nodes := make([]*server.Server, len(involved))
		reqs := make([]protocol.UpdateRequest, len(involved))
		remote := make([]bool, len(involved))
		for i, s := range involved {
			nodes[i], reqs[i] = c.nodes[s], perShard[s]
			// A shard that cannot see the whole read set installs through
			// the conservative ApplyRemote.
			remote[i] = len(perShard[s].Reads) < len(req.Reads)
		}
		t0 := time.Now()
		err = server.SubmitAcross(nodes, reqs, remote)
		c.hCommitNs.Observe(time.Since(t0).Nanoseconds())
		if err != nil {
			err = fmt.Errorf("cross-shard commit over shards %v: %w", involved, err)
		}
	}
	if err != nil {
		c.cAborts.Inc()
		return err
	}
	c.cCommits.Inc()
	return nil
}
