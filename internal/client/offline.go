package client

// Disconnected operation (DESIGN.md §13): a client that goes off the
// air — dozing past whole cycles, out of coverage, or simply powered
// down with its persistent cache on disk — records transaction intents
// instead of failing them. When it retunes, the recovered cache
// inventory is revalidated against the live control snapshot
// (setCurrent) and the queue drains through the ordinary
// transaction machinery: each read validates under the Theorem-2
// read-condition against the stored columns or the current cycle, so
// an intent aborts only when it genuinely fails — never merely because
// the client was away.

import (
	"errors"

	"broadcastcc/internal/protocol"
)

// ErrOffline distinguishes queue drains attempted before any cycle has
// been received.
var ErrOffline = errors.New("client: still off the air")

// offlineOp is one queued transaction intent.
type offlineOp struct {
	reads  []int
	writes []protocol.ObjectWrite // nil for read-only intents
}

// OfflineResult is the outcome of one drained intent, in queue order.
type OfflineResult struct {
	Reads   []int
	Update  bool
	Values  [][]byte          // parallel to Reads on success
	ReadSet []protocol.ReadAt // the validated read set
	Err     error             // nil = committed
}

// QueueRead records a read-only transaction intent to run once the
// client is back on the air.
func (c *Client) QueueRead(objs ...int) {
	c.offline = append(c.offline, offlineOp{reads: append([]int(nil), objs...)})
	c.cOfflineQueued.Inc()
}

// QueueUpdate records an update transaction intent: the reads it needs
// and the writes it will submit.
func (c *Client) QueueUpdate(reads []int, writes []protocol.ObjectWrite) {
	ws := make([]protocol.ObjectWrite, len(writes))
	for i, w := range writes {
		ws[i] = protocol.ObjectWrite{Obj: w.Obj, Value: append([]byte(nil), w.Value...)}
	}
	if ws == nil {
		ws = []protocol.ObjectWrite{}
	}
	c.offline = append(c.offline, offlineOp{reads: append([]int(nil), reads...), writes: ws})
	c.cOfflineQueued.Inc()
}

// OfflineQueueLen reports the number of queued intents.
func (c *Client) OfflineQueueLen() int { return len(c.offline) }

// DrainOffline runs every queued intent against the current cycle and
// cache, in order, and empties the queue. Call it after AwaitRetune (or
// the first AwaitCycle after New with a persistent store): reads serve
// from the revalidated cache when a sufficiently current entry
// survived, otherwise off the air; updates ship their read/write sets
// up the uplink (nil uplink fails update intents, read-only intents
// still run). Each intent gets an independent verdict — one genuine
// validation failure does not poison the rest.
func (c *Client) DrainOffline(uplink protocol.Uplink) ([]OfflineResult, error) {
	if len(c.offline) == 0 {
		return nil, nil
	}
	if c.cur == nil {
		return nil, ErrOffline
	}
	ops := c.offline
	c.offline = nil
	results := make([]OfflineResult, 0, len(ops))
	for _, op := range ops {
		res := c.runOffline(op, uplink)
		if res.Err == nil {
			c.cOfflineOK.Inc()
		} else {
			c.cOfflineAborted.Inc()
		}
		results = append(results, res)
	}
	return results, nil
}

// runOffline executes one intent. A read-only intent is an update
// transaction that writes nothing: it validates its reads the same way
// and never reaches the uplink.
func (c *Client) runOffline(op offlineOp, uplink protocol.Uplink) OfflineResult {
	res := OfflineResult{Reads: op.reads, Update: op.writes != nil}
	if res.Update && uplink == nil {
		res.Err = errors.New("client: update intent needs an uplink")
		return res
	}
	txn := c.BeginUpdate()
	for _, obj := range op.reads {
		v, err := txn.Read(obj)
		if err != nil {
			res.Err = err
			return res
		}
		res.Values = append(res.Values, v)
	}
	for _, w := range op.writes {
		if err := txn.Write(w.Obj, w.Value); err != nil {
			txn.Abort()
			res.Err = err
			return res
		}
	}
	req, err := txn.Finish()
	res.ReadSet, res.Err = req.Reads, err
	if err == nil && len(req.Writes) > 0 {
		res.Err = uplink.SubmitUpdate(req)
	}
	return res
}
