// Package client implements the broadcast client runtime (Section
// 3.2.1, client functionality): read-only transactions that read
// current, mutually consistent data entirely "off the air" — validating
// every read against the broadcast control information, never
// contacting the server — and update transactions that buffer writes
// locally and ship read/write sets up the low-bandwidth uplink at
// commit. The optional client cache implements the weak-currency
// extension of Section 3.3: items read off the air may be served from
// cache for up to a currency bound of T cycles, with the relevant
// control-matrix columns retained so validation still needs no uplink
// traffic.
package client

import (
	"errors"
	"fmt"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
)

// Errors returned by client transactions.
var (
	// ErrInconsistentRead aborts a transaction whose next read would
	// violate the protocol's read-condition; the caller should restart
	// the transaction (typically on a later cycle).
	ErrInconsistentRead = errors.New("client: read would be inconsistent with previous reads")
	// ErrNoBroadcast means no cycle has been received yet.
	ErrNoBroadcast = errors.New("client: no broadcast cycle received yet")
	// ErrTunedOut means the subscription was closed.
	ErrTunedOut = errors.New("client: broadcast subscription closed")
	// ErrTxnFinished rejects operations on a finished transaction.
	ErrTxnFinished = errors.New("client: transaction already finished")
)

// Config parameterizes a client.
type Config struct {
	// Algorithm must match what the server broadcasts.
	Algorithm protocol.Algorithm
	// CacheCurrency is the weak-currency bound T in cycles: a cached
	// item may satisfy reads while the current cycle is within T cycles
	// of the cycle it was cached in. Zero disables caching (every read
	// comes off the air, current to the running cycle — the paper's
	// default currency requirement).
	CacheCurrency cmatrix.Cycle
	// CacheCurrencyOf, when set, tailors the currency bound per object
	// (Section 3.3: "the invalidation interval can be tailored on a per
	// client per object basis"). A non-positive return disables caching
	// for that object. CacheCurrency must still be positive to enable
	// the cache and acts as the bound where CacheCurrencyOf is nil.
	CacheCurrencyOf func(obj int) cmatrix.Cycle
	// CacheSize caps the number of cached entries (0 = unlimited).
	// Eviction is least-recently-cached.
	CacheSize int
	// Store, when non-nil, is the persistent quasi-cache tier (DESIGN.md
	// §13): every cache mutation reaches its inventory, logged at each
	// cycle edge (AwaitCycle's expiry flushes it), and at New the
	// store's recovered inventory seeds the cache — revalidated against
	// the first control snapshot heard off the air before anything is
	// served. Requires CacheCurrency > 0. Under grouped control, entries
	// stay in memory only (a grouped snapshot has no per-object column
	// worth persisting); matrix and vector control persist fully.
	Store *qcache.Store
	// ObserveRead, when set, is called after every read validation with
	// the object, the cycle the read was performed in (the cache entry's
	// cycle for cache hits), whether it was served from the cache, and
	// whether the read-condition accepted it. It instruments the read
	// path: the conformance harness's live-stack audits and the quasi
	// study's staleness measure set it; nil costs nothing.
	ObserveRead func(obj int, cycle cmatrix.Cycle, cacheHit, accepted bool)
	// Obs receives the client's metrics (client_cycles_seen,
	// client_gaps, client_cycles_missed, client_reads,
	// client_cache_hits, client_read_aborts, client_restarts and the
	// client_cache_* revalidation and store counters). Nil uses a
	// private registry; Stats() is a view over it either way.
	Obs *obs.Registry
	// Trace, when non-nil, receives cycle-clock events for this
	// client's reads, aborts and retunes, with Actor = ClientID.
	Trace *obs.Tracer
	// ClientID stamps this client's trace events (Actor field) so
	// multi-client traces attribute events; obs.ActorServer (-1) is
	// reserved for servers.
	ClientID int32
}

// currencyOf resolves the effective currency bound for one object.
func (c Config) currencyOf(obj int) cmatrix.Cycle {
	if c.CacheCurrencyOf != nil {
		return c.CacheCurrencyOf(obj)
	}
	return c.CacheCurrency
}

// Client is a broadcast listener. It is not safe for concurrent use;
// run one client per goroutine, which is also the realistic deployment
// (one tuner per device).
type Client struct {
	cfg   Config
	sub   *bcast.Subscription
	cur   *bcast.CycleBroadcast
	cache *qcache.Cache // nil = caching disabled

	// pendingRevalidate marks a cache inventory recovered from the
	// persistent store that has not yet been checked against a live
	// control snapshot; the first received cycle revalidates it.
	pendingRevalidate bool

	// spare is the validator the last finished transaction handed back,
	// already Reset: the next Begin takes it instead of building one.
	spare protocol.Validator

	// Observability: counters resolved once at New (the read path is a
	// single atomic add per outcome), tracer nil-safe.
	obs           *obs.Registry
	trace         *obs.Tracer
	cCyclesSeen   *obs.Counter
	cGaps         *obs.Counter
	cCyclesMissed *obs.Counter
	cReads        *obs.Counter
	cCacheHits    *obs.Counter
	cReadAborts   *obs.Counter
	cRestarts     *obs.Counter
	cRevalidated  *obs.Counter
	cRevalDropped *obs.Counter
	cStoreErrors  *obs.Counter
}

// Stats are cumulative client counters — a view over the client's obs
// registry (Config.Obs), which is the single source of truth.
type Stats struct {
	CyclesSeen   int64
	Gaps         int64 // discontinuities in the received cycle sequence
	CyclesMissed int64 // whole cycles lost to dozes, drops or disconnects
	Reads        int64 // successful validated reads
	CacheHits    int64 // reads served from the local cache
	ReadAborts   int64 // reads rejected by the read-condition
}

// New builds a client over an existing subscription (obtain one from
// server.Subscribe or bcast.Medium.Subscribe). A configured persistent
// store seeds the cache with its recovered inventory, pending
// revalidation against the first cycle heard off the air.
func New(cfg Config, sub *bcast.Subscription) *Client {
	c := &Client{cfg: cfg, sub: sub}
	c.obs = cfg.Obs
	if c.obs == nil {
		c.obs = obs.NewRegistry()
	}
	c.trace = cfg.Trace
	c.cCyclesSeen = c.obs.Counter("client_cycles_seen")
	c.cGaps = c.obs.Counter("client_gaps")
	c.cCyclesMissed = c.obs.Counter("client_cycles_missed")
	c.cReads = c.obs.Counter("client_reads")
	c.cCacheHits = c.obs.Counter("client_cache_hits")
	c.cReadAborts = c.obs.Counter("client_read_aborts")
	c.cRestarts = c.obs.Counter("client_restarts")
	c.cRevalidated = c.obs.Counter("client_cache_revalidated")
	c.cRevalDropped = c.obs.Counter("client_cache_dropped")
	c.cStoreErrors = c.obs.Counter("client_cache_store_errors")
	if cfg.CacheCurrency > 0 {
		c.cache = new(qcache.Cache)
		c.cache.Init(cfg.CacheSize, cfg.currencyOf, cfg.Store, c.cStoreErrors.Inc)
		if cfg.Store != nil {
			// Recovered entries are not served until the first received
			// cycle revalidates them.
			c.pendingRevalidate = c.cache.Recover() > 0
		}
	}
	return c
}

// Obs returns the client's metrics registry (Config.Obs, or the
// private registry created when none was supplied).
func (c *Client) Obs() *obs.Registry { return c.obs }

// AwaitCycle blocks until the next broadcast cycle arrives and makes it
// current; the cycle it returns is valid while it stays current. Stale
// redeliveries (a lossy tuner retuning can replay the cycle already
// current) are skipped. It reports false when the subscription is
// closed. It is also the whole of recovery from a doze or lost frames:
// an in-progress transaction continues, each later read judged by the
// control information of the cycle it is made in, and the gap is
// counted in Stats().CyclesMissed.
func (c *Client) AwaitCycle() (*bcast.CycleBroadcast, bool) {
	for {
		cb, ok := <-c.sub.C
		if !ok {
			return nil, false
		}
		if c.setCurrent(cb) {
			return cb, true
		}
	}
}

// PollCycle makes the newest already-delivered cycle current without
// blocking, reporting whether a new cycle was consumed.
func (c *Client) PollCycle() bool {
	advanced := false
	for {
		select {
		case cb, ok := <-c.sub.C:
			if !ok {
				return advanced
			}
			if c.setCurrent(cb) {
				advanced = true
			}
		default:
			return advanced
		}
	}
}

// setCurrent installs a received cycle, reporting whether it advanced
// the client. Duplicates and regressions (retune replays) are ignored;
// gaps — the client was dozing, frames were lost — are detected and
// counted. The client holds the count its delivery took on the current
// cycle's frame, and lets go of it on replacement; an ignored cycle's
// count is released at once.
func (c *Client) setCurrent(cb *bcast.CycleBroadcast) bool {
	if c.cur != nil {
		if cb.Number <= c.cur.Number {
			cb.Release()
			return false
		}
		if gap := int64(cb.Number-c.cur.Number) - 1; gap > 0 {
			c.cGaps.Inc()
			c.cCyclesMissed.Add(gap)
			c.trace.Emit(obs.EvRetune, c.cfg.ClientID, int64(cb.Number), 0, gap)
		}
	}
	c.cur.Release()
	c.cur = cb
	c.cCyclesSeen.Inc()
	if c.cache != nil {
		// The per-cycle expiry is also the revalidation of a
		// store-recovered inventory against the first cycle heard: entries
		// beyond their currency bound, or cached "later" than this cycle
		// (an incomparable epoch — the server restarted), are dropped and
		// the rest may serve reads. A disconnected client's inventory
		// survives arbitrarily many missed cycles as long as the currency
		// bound tolerates them.
		kept, dropped := c.cache.Expire(cb.Number)
		if c.pendingRevalidate {
			c.pendingRevalidate = false
			c.cRevalidated.Add(kept)
			c.cRevalDropped.Add(dropped)
			c.trace.Emit(obs.EvRetune, c.cfg.ClientID, int64(cb.Number), 1, kept)
		}
	}
	return true
}

// Current returns the cycle the client is currently reading from, or
// nil before the first AwaitCycle/PollCycle.
func (c *Client) Current() *bcast.CycleBroadcast { return c.cur }

// Stats returns the client counters as a struct view over the obs
// registry.
func (c *Client) Stats() Stats {
	return Stats{
		CyclesSeen:   c.cCyclesSeen.Load(),
		Gaps:         c.cGaps.Load(),
		CyclesMissed: c.cCyclesMissed.Load(),
		Reads:        c.cReads.Load(),
		CacheHits:    c.cCacheHits.Load(),
		ReadAborts:   c.cReadAborts.Load(),
	}
}

// Retune replaces the client's subscription after the previous one
// ended — the tuner reconnected, possibly to a restarted server whose
// cycle numbering begins again at 1. The current-cycle epoch is reset
// (cycle numbers across a server restart are incomparable, so without
// the reset every post-restart cycle would look like a stale replay
// and the client would stall forever) and the cache is dropped for the
// same reason. Any in-progress transaction should be aborted by the
// caller: its read cycles belong to the old epoch.
func (c *Client) Retune(sub *bcast.Subscription) {
	c.sub = sub
	if c.cur != nil {
		c.cGaps.Inc()
		c.trace.Emit(obs.EvRetune, c.cfg.ClientID, int64(c.cur.Number), 0, -1)
	}
	c.cur.Release()
	c.cur = nil
	if c.cache != nil {
		// The persistent inventory belongs to the old epoch too: clear it
		// rather than revalidate entries whose cycles are incomparable.
		c.cache.Clear()
	}
	c.pendingRevalidate = false
}

// Cancel tunes the client out.
func (c *Client) Cancel() { c.sub.Cancel() }

// validator returns the validator for one transaction attempt: the
// spare one if a finished transaction left it, else a new one. With
// caching enabled, reads can be out of cycle order, so the
// snapshot-retaining validator is used for every algorithm (for the
// vector protocols this is conservative but sound). Without a cache
// every read comes off the current cycle, in non-decreasing cycle
// order even across reception gaps, and the exact paper validators
// apply, including R-Matrix's disjunct.
func (c *Client) validator() protocol.Validator {
	if v := c.spare; v != nil {
		c.spare = nil
		return v
	}
	if c.cache != nil {
		return &protocol.SnapshotValidator{}
	}
	return protocol.NewValidator(c.cfg.Algorithm)
}

// release finishes a transaction: its validator, if it still has one,
// is Reset and kept for the next Begin, and *val becomes nil — the only
// finished state, so a stale transaction can never reach the validator
// another one now uses.
func (c *Client) release(val *protocol.Validator) {
	if *val != nil {
		(*val).Reset()
		c.spare, *val = *val, nil
	}
}

// ReadTxn is a read-only transaction. Reads are validated against the
// control information of the cycle (or cache entry) they come from; a
// failed validation aborts the transaction with ErrInconsistentRead.
type ReadTxn struct {
	c   *Client
	val protocol.Validator // nil once finished
}

// BeginReadOnly starts a read-only transaction.
func (c *Client) BeginReadOnly() *ReadTxn {
	return &ReadTxn{c: c, val: c.validator()}
}

// Read returns the value of obj: from the local cache when a
// sufficiently current entry exists, otherwise off the current
// broadcast cycle (caching the item for future transactions). A
// validation failure returns ErrInconsistentRead and finishes the
// transaction.
func (t *ReadTxn) Read(obj int) ([]byte, error) {
	if t.val == nil {
		return nil, ErrTxnFinished
	}
	return t.c.read(&t.val, obj)
}

// read fetches obj and validates it against the transaction's previous
// reads. A failed validation returns ErrInconsistentRead, which
// finishes the transaction (release), and drops its objects from the
// cache so a restart re-reads them off the air instead of replaying the
// same stale entries into the same conflict.
func (c *Client) read(val *protocol.Validator, obj int) ([]byte, error) {
	value, snap, cycle, hit, err := c.fetch(obj)
	if err != nil {
		return nil, err
	}
	ok := (*val).TryRead(snap, obj, cycle)
	c.recordRead(obj, cycle, hit, ok)
	if !ok {
		if c.cache != nil {
			for _, r := range (*val).ReadSet() {
				c.cache.Remove(r.Obj)
			}
			c.cache.Remove(obj)
		}
		c.release(val)
		return nil, fmt.Errorf("%w: object %d at cycle %d", ErrInconsistentRead, obj, cycle)
	}
	return value, nil
}

// recordRead records a read outcome in the registry and trace, and
// notifies the instrumentation hook when one is installed. Cache hits
// are stamped frame -1 (the value never crossed the air this cycle);
// off-the-air reads use frame 0, since the flat client layer has no
// sub-cycle frame position (the selective tuner counts its own frames).
func (c *Client) recordRead(obj int, cycle cmatrix.Cycle, hit, accepted bool) {
	kind, frame := obs.EvReadAbort, int32(0)
	if hit {
		frame = -1
	}
	if accepted {
		kind = obs.EvReadValidate
		c.cReads.Inc()
		if hit {
			c.cCacheHits.Inc()
		}
	} else {
		c.cReadAborts.Inc()
	}
	c.trace.Emit(kind, c.cfg.ClientID, int64(cycle), frame, int64(obj))
	if c.cfg.ObserveRead != nil {
		c.cfg.ObserveRead(obj, cycle, hit, accepted)
	}
}

// Commit finishes the transaction, returning its read-set. Read-only
// transactions never contact the server: if every Read succeeded the
// transaction is correct by construction (Theorem 1).
func (t *ReadTxn) Commit() ([]protocol.ReadAt, error) {
	if t.val == nil {
		return nil, ErrTxnFinished
	}
	rs := t.val.ReadSet()
	t.c.release(&t.val)
	return rs, nil
}

// fetch resolves a read: cache first (when enabled and fresh), then the
// current broadcast. The value returned is the caller's own copy, and so
// is the one the cache keeps: a cycle's Values are shared — with the
// server's committed state in process, with the received frame off a
// tuner (wire.ViewCycle) — so nothing that outlives the cycle may alias
// them, and nothing may write them.
func (c *Client) fetch(obj int) (value []byte, snap protocol.Snapshot, cycle cmatrix.Cycle, cacheHit bool, err error) {
	if c.cur == nil {
		return nil, nil, 0, false, ErrNoBroadcast
	}
	if obj < 0 || obj >= len(c.cur.Values) {
		return nil, nil, 0, false, fmt.Errorf("client: object %d out of range [0,%d)", obj, len(c.cur.Values))
	}
	if c.cache != nil {
		// Get enforces the currency bound at read time (and evicts on
		// failure): a CacheCurrencyOf bound lowered mid-cycle takes effect
		// immediately, not at the next cycle boundary.
		if value, cycle, snap, ok := c.cache.Get(obj, c.cur.Number); ok {
			return append([]byte(nil), value...), snap, cycle, true, nil
		}
	}
	value = append([]byte(nil), c.cur.Values[obj]...)
	cycle, snap = c.cur.Number, c.cur.Snapshot()
	if c.cache != nil {
		// Retain only this object's control slice so the cache cost per
		// entry matches Section 3.3: a copy of one matrix column (never a
		// view, which pins its frame), else the whole (small) control. A
		// grouped view is kept whole, with a count the cache never
		// releases: that frame stays out of the tuner's slot.
		if l := c.cur.Layout.Control; l == bcast.ControlMatrix || l == bcast.ControlNone {
			snap = c.cur.Column(obj)
		} else if p, ok := snap.(protocol.Pinned); ok {
			p.Retain()
		}
		c.cache.Put(obj, append([]byte(nil), value...), cycle, snap)
	}
	return value, snap, cycle, false, nil
}

// RunReadOnly executes fn as a read-only transaction, retrying on
// ErrInconsistentRead: each retry waits for the next broadcast cycle
// (fresher data) and re-runs fn with a new transaction. Zero
// maxAttempts means retry until the subscription closes. Any other
// error from fn aborts the loop and is returned.
func (c *Client) RunReadOnly(maxAttempts int, fn func(*ReadTxn) error) ([]protocol.ReadAt, error) {
	for attempt := 0; maxAttempts == 0 || attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.cRestarts.Inc()
			if _, ok := c.AwaitCycle(); !ok {
				return nil, ErrTunedOut
			}
		}
		txn := c.BeginReadOnly()
		err := fn(txn)
		switch {
		case errors.Is(err, ErrInconsistentRead):
			continue
		case err != nil:
			return nil, err
		}
		return txn.Commit()
	}
	return nil, fmt.Errorf("client: read-only transaction aborted %d times", maxAttempts)
}

// UpdateTxn is a client update transaction: reads are validated like a
// read-only transaction's (so the transaction always sees mutually
// consistent data), writes are buffered locally, and Commit ships the
// read/write sets over the uplink for server-side validation.
type UpdateTxn struct {
	c      *Client
	val    protocol.Validator // nil once finished
	writes map[int][]byte
	order  []int
}

// BeginUpdate starts an update transaction.
func (c *Client) BeginUpdate() *UpdateTxn {
	return &UpdateTxn{c: c, val: c.validator(), writes: map[int][]byte{}}
}

// Read returns the value of obj, validated against previous reads.
// The transaction's own buffered writes are returned as-is.
func (t *UpdateTxn) Read(obj int) ([]byte, error) {
	if t.val == nil {
		return nil, ErrTxnFinished
	}
	if v, ok := t.writes[obj]; ok {
		return append([]byte(nil), v...), nil
	}
	return t.c.read(&t.val, obj)
}

// Write buffers val as the new value of obj. No check is made (Section
// 3.2.1: writes are local until commit).
func (t *UpdateTxn) Write(obj int, val []byte) error {
	if t.val == nil {
		return ErrTxnFinished
	}
	if t.c.cur != nil && (obj < 0 || obj >= len(t.c.cur.Values)) {
		return fmt.Errorf("client: object %d out of range [0,%d)", obj, len(t.c.cur.Values))
	}
	if _, seen := t.writes[obj]; !seen {
		t.order = append(t.order, obj)
	}
	t.writes[obj] = append([]byte(nil), val...)
	return nil
}

// Commit finishes the transaction. Pure readers commit locally; writers
// ship an UpdateRequest up the uplink and adopt the server's verdict.
func (t *UpdateTxn) Commit(uplink protocol.Uplink) error {
	req, err := t.Finish()
	if err != nil {
		return err
	}
	if len(req.Writes) == 0 {
		return nil
	}
	return uplink.SubmitUpdate(req)
}

// Finish ends the transaction and returns the update request it would
// have submitted — the validated read set plus buffered writes in
// write order — without shipping it anywhere. The shard router uses
// this to merge per-shard requests into one global submission, where
// even a pure-reader shard's read set must travel (the coordinator
// validates and pins reads at every participant).
func (t *UpdateTxn) Finish() (protocol.UpdateRequest, error) {
	if t.val == nil {
		return protocol.UpdateRequest{}, ErrTxnFinished
	}
	req := protocol.UpdateRequest{Reads: t.val.ReadSet()}
	t.c.release(&t.val)
	for _, obj := range t.order {
		req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: obj, Value: t.writes[obj]})
	}
	return req, nil
}

// Abort discards the transaction.
func (t *UpdateTxn) Abort() { t.c.release(&t.val) }
