package shard

import (
	"fmt"
	"sort"

	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// Router gives client code the unsharded programming model over a
// sharded fleet: transactions name global object ids, the router
// splits them across per-shard clients (one tuner per broadcast
// channel) and stitches the results back together. Read-only
// transactions validate per shard with the ordinary Theorem 1/2 read
// conditions plus the cross-shard cycle-alignment check; update
// transactions commit through the coordinator's two-shot protocol.
//
// The per-shard clients must be cache-free (CacheCurrency 0 and no
// RetainSnapshots): the router stamps each read with the shard's
// current cycle, which only holds when every read comes off the
// current broadcast. A Router is not safe for concurrent use; open one
// per logical client.
type Router struct {
	m       *Mapping
	clients []*client.Client
	uplink  protocol.Uplink
}

// NewRouter wires per-shard clients (index = shard id) to an uplink —
// a *Coordinator for real fleets, anything else in tests.
func NewRouter(m *Mapping, clients []*client.Client, uplink protocol.Uplink) (*Router, error) {
	if len(clients) != m.Shards() {
		return nil, fmt.Errorf("shard: %d clients for %d shards", len(clients), m.Shards())
	}
	return &Router{m: m, clients: clients, uplink: uplink}, nil
}

// Mapping returns the placement the router splits by.
func (r *Router) Mapping() *Mapping { return r.m }

// Client returns shard s's tuner, for callers that need direct access
// (retuning, stats).
func (r *Router) Client(s int) *client.Client { return r.clients[s] }

// ensureTuned blocks until shard s's client has a current cycle.
func (r *Router) ensureTuned(s int) error {
	c := r.clients[s]
	c.PollCycle()
	for c.Current() == nil {
		if _, ok := c.AwaitCycle(); !ok {
			return client.ErrTunedOut
		}
	}
	return nil
}

// awaitShardCycle blocks until shard s's client is at cycle >= want.
func (r *Router) awaitShardCycle(s int, want cmatrix.Cycle) error {
	c := r.clients[s]
	c.PollCycle()
	for c.Current() == nil || c.Current().Number < want {
		if _, ok := c.AwaitCycle(); !ok {
			return client.ErrTunedOut
		}
	}
	return nil
}

// ReadTxn is a read-only transaction over global object ids.
type ReadTxn struct {
	r    *Router
	txns []*client.ReadTxn // lazily opened, index = shard
	used []int             // ascending shard ids with at least one read
	done bool
}

// BeginReadOnly starts a read-only transaction.
func (r *Router) BeginReadOnly() *ReadTxn {
	return &ReadTxn{r: r, txns: make([]*client.ReadTxn, r.m.Shards())}
}

// Read returns the value of global object obj, validated on its
// shard's channel against the transaction's previous reads there.
func (t *ReadTxn) Read(obj int) ([]byte, error) {
	if t.done {
		return nil, client.ErrTxnFinished
	}
	s := t.r.m.ShardOf(obj)
	if t.txns[s] == nil {
		if err := t.r.ensureTuned(s); err != nil {
			return nil, err
		}
		t.txns[s] = t.r.clients[s].BeginReadOnly()
		t.used = append(t.used, s)
		sort.Ints(t.used)
	}
	return t.txns[s].Read(t.r.m.Local(obj))
}

// Commit finishes the transaction: every shard's reads have already
// passed that shard's read condition; for a multi-shard transaction the
// router additionally runs the cycle-alignment check so one
// serialization point admits all per-shard snapshots. It returns the
// read set in global object ids, stamped with the shard cycles the
// reads were served at.
//
// Alignment: with c* the largest read cycle anywhere in the
// transaction, every read (i, cyc) with cyc < c* must still be the
// latest committed version at c* — i.e. a shard snapshot at cycle
// >= c* must show Bound(i, i) < cyc. The router waits for lagging
// shards to broadcast cycle c* before certifying, so a caller must
// keep the fleet's cycles advancing (live deployments always do).
func (t *ReadTxn) Commit() ([]protocol.ReadAt, error) {
	if t.done {
		return nil, client.ErrTxnFinished
	}
	t.done = true
	var all []protocol.ReadAt
	var cstar cmatrix.Cycle
	perShard := make(map[int][]protocol.ReadAt, len(t.used))
	for _, s := range t.used {
		reads, err := t.txns[s].Commit()
		if err != nil {
			return nil, err
		}
		perShard[s] = reads
		globals := t.r.m.Globals(s)
		for _, rd := range reads {
			if rd.Cycle > cstar {
				cstar = rd.Cycle
			}
			all = append(all, protocol.ReadAt{Obj: globals[rd.Obj], Cycle: rd.Cycle})
		}
	}
	if len(t.used) > 1 {
		for _, s := range t.used {
			if err := t.r.awaitShardCycle(s, cstar); err != nil {
				return nil, err
			}
			snap := t.r.clients[s].Current().Snapshot()
			for _, rd := range perShard[s] {
				if rd.Cycle < cstar && snap.Bound(rd.Obj, rd.Obj) >= rd.Cycle {
					return nil, fmt.Errorf("%w: object %d read at cycle %d cannot align at cycle %d",
						client.ErrInconsistentRead, t.r.m.Globals(s)[rd.Obj], rd.Cycle, cstar)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Obj < all[j].Obj })
	return all, nil
}

// Abort finishes the transaction without validating.
func (t *ReadTxn) Abort() {
	t.done = true
}

// RunReadOnly executes fn as a read-only transaction, retrying on
// ErrInconsistentRead; each retry waits for the next broadcast cycle on
// every shard the failed attempt touched. Zero maxAttempts retries
// until a subscription closes.
func (r *Router) RunReadOnly(maxAttempts int, fn func(*ReadTxn) error) ([]protocol.ReadAt, error) {
	var lastUsed []int
	for attempt := 0; maxAttempts == 0 || attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			for _, s := range lastUsed {
				if _, ok := r.clients[s].AwaitCycle(); !ok {
					return nil, client.ErrTunedOut
				}
			}
		}
		txn := r.BeginReadOnly()
		err := fn(txn)
		if err == nil {
			var reads []protocol.ReadAt
			if reads, err = txn.Commit(); err == nil {
				return reads, nil
			}
		}
		txn.Abort()
		lastUsed = txn.used
		if len(lastUsed) == 0 {
			lastUsed = []int{0}
		}
		if !isInconsistent(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: transaction restarted %d times", client.ErrInconsistentRead, maxAttempts)
}

func isInconsistent(err error) bool {
	for e := err; e != nil; {
		if e == client.ErrInconsistentRead {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// UpdateTxn is an update transaction over global object ids. Reads
// validate on their shard's channel exactly like an unsharded update
// transaction's; writes buffer per shard with read-your-writes; Commit
// assembles the global update request and submits it through the
// router's uplink (the coordinator), which runs the two-shot commit
// when the transaction spans shards. No separate alignment check is
// needed: each prepare re-validates the shard's reads against commits
// up to the decision cycle, which is strictly stronger than aligning
// at the commit point.
type UpdateTxn struct {
	r    *Router
	txns []*client.UpdateTxn
	used []int
	done bool
}

// BeginUpdate starts an update transaction.
func (r *Router) BeginUpdate() *UpdateTxn {
	return &UpdateTxn{r: r, txns: make([]*client.UpdateTxn, r.m.Shards())}
}

func (t *UpdateTxn) shardTxn(obj int) (*client.UpdateTxn, int, error) {
	s := t.r.m.ShardOf(obj)
	if t.txns[s] == nil {
		if err := t.r.ensureTuned(s); err != nil {
			return nil, 0, err
		}
		t.txns[s] = t.r.clients[s].BeginUpdate()
		t.used = append(t.used, s)
		sort.Ints(t.used)
	}
	return t.txns[s], t.r.m.Local(obj), nil
}

// Read returns the value of global object obj (the transaction's own
// buffered write when present), validated against previous reads on
// that shard.
func (t *UpdateTxn) Read(obj int) ([]byte, error) {
	if t.done {
		return nil, client.ErrTxnFinished
	}
	txn, local, err := t.shardTxn(obj)
	if err != nil {
		return nil, err
	}
	return txn.Read(local)
}

// Write buffers a write of global object obj.
func (t *UpdateTxn) Write(obj int, val []byte) error {
	if t.done {
		return client.ErrTxnFinished
	}
	txn, local, err := t.shardTxn(obj)
	if err != nil {
		return err
	}
	return txn.Write(local, val)
}

// Commit assembles the global update request from every shard's reads
// and writes and submits it through the router's uplink. The verdict
// is the fleet's: nil means committed everywhere.
func (t *UpdateTxn) Commit() error {
	if t.done {
		return client.ErrTxnFinished
	}
	t.done = true
	var global protocol.UpdateRequest
	for _, s := range t.used {
		req, err := t.txns[s].Finish()
		if err != nil {
			return err
		}
		globals := t.r.m.Globals(s)
		for _, rd := range req.Reads {
			global.Reads = append(global.Reads, protocol.ReadAt{Obj: globals[rd.Obj], Cycle: rd.Cycle})
		}
		for _, w := range req.Writes {
			global.Writes = append(global.Writes, protocol.ObjectWrite{Obj: globals[w.Obj], Value: w.Value})
		}
	}
	if len(global.Reads) == 0 && len(global.Writes) == 0 {
		return nil
	}
	return t.r.uplink.SubmitUpdate(global)
}

// Abort discards the transaction.
func (t *UpdateTxn) Abort() {
	for _, s := range t.used {
		t.txns[s].Abort()
	}
	t.done = true
}
