package shard

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

// Coordinator splits uplink update transactions across the fleet and
// runs the two-shot commit: shot one prepares the transaction at every
// participating shard under the paper's update-consistency check (each
// shard validating its projection of the read set and pinning what it
// validated); shot two broadcasts the fleet-wide decision. A
// transaction whose reads and writes all land on one shard bypasses the
// protocol entirely and uses the shard's ordinary single-shot submit,
// which keeps k = 1 byte-identical to the unsharded server.
type Coordinator struct {
	m     *Mapping
	parts []protocol.Participant
	obs   *obs.Registry
	next  atomic.Uint64 // token source: 1, 2, 3, ... (deterministic)

	cPrepares  *obs.Counter
	cCommits   *obs.Counter
	cAborts    *obs.Counter
	hPrepareNs *obs.Histogram
	hCommitNs  *obs.Histogram
}

// NewCoordinator builds a coordinator over one participant per shard.
// Its metrics (shard_prepares_total, shard_commits_total,
// shard_aborts_total, shard_prepare_ns, shard_commit_ns) go to a
// registry of its own, which Obs returns.
func NewCoordinator(m *Mapping, parts []protocol.Participant) (*Coordinator, error) {
	if len(parts) != m.Shards() {
		return nil, fmt.Errorf("shard: %d participants for %d shards", len(parts), m.Shards())
	}
	c := &Coordinator{m: m, parts: parts, obs: obs.NewRegistry()}
	c.cPrepares = c.obs.Counter("shard_prepares_total")
	c.cCommits = c.obs.Counter("shard_commits_total")
	c.cAborts = c.obs.Counter("shard_aborts_total")
	c.hPrepareNs = c.obs.Histogram("shard_prepare_ns", obs.Pow2Buckets(10, 22))
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
// written values are req's own: every participant call returns before
// SubmitUpdate does, and a participant that keeps a request copies it.
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
// fast path submits directly; anything spanning shards runs the
// two-shot commit. nil means the transaction committed fleet-wide; any
// error means it aborted everywhere (prepared shards get an abort
// decision; any it does not reach expire their prepare by TTL).
//
// SubmitUpdate implements protocol.Uplink over global object ids, so a
// Router-side UpdateTxn can commit through a Coordinator exactly as an
// unsharded client commits through a server.
func (c *Coordinator) SubmitUpdate(req protocol.UpdateRequest) error {
	perShard, involved := c.split(req)
	if len(involved) == 0 {
		return nil // nothing read, nothing written
	}
	if len(involved) == 1 {
		s := involved[0]
		if err := c.parts[s].SubmitUpdate(perShard[s]); err != nil {
			c.cAborts.Inc()
			return err
		}
		c.cCommits.Inc()
		return nil
	}
	return c.submitTwoShot(perShard, involved, len(req.Reads))
}

// submitTwoShot runs the prepare/decide rounds for a multi-shard
// transaction with the given number of reads fleet-wide.
func (c *Coordinator) submitTwoShot(perShard []protocol.UpdateRequest, involved []int, reads int) error {
	token := c.next.Add(1)
	t0 := time.Now()
	var firstErr error
	prepared := involved[:0:0]
	for _, s := range involved {
		// remote marks shards that cannot see the whole read set: their
		// control state must take the conservative ApplyRemote path.
		remote := len(perShard[s].Reads) < reads
		err := c.parts[s].PrepareUpdate(token, perShard[s], remote)
		c.cPrepares.Inc()
		if err != nil {
			firstErr = fmt.Errorf("shard %d: %w", s, err)
			break
		}
		prepared = append(prepared, s)
	}
	c.hPrepareNs.Observe(time.Since(t0).Nanoseconds())
	commit := firstErr == nil
	t1 := time.Now()
	for _, s := range involved {
		if !commit && !slices.Contains(prepared, s) {
			continue // never prepared there; nothing to abort
		}
		if err := c.parts[s].DecideUpdate(token, commit); err != nil && commit {
			// A commit decision that cannot land is an atomicity loss in
			// flight: surface it loudly. (Aborts are best-effort — the TTL
			// finishes the job.)
			firstErr = fmt.Errorf("shard %d decide: %w", s, err)
			commit = false
		}
	}
	c.hCommitNs.Observe(time.Since(t1).Nanoseconds())
	if firstErr != nil {
		c.cAborts.Inc()
		return firstErr
	}
	c.cCommits.Inc()
	return nil
}
