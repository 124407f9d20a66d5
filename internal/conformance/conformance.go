// Package conformance is the randomized differential-testing subsystem
// for the paper's acceptance lattice. It generates seeded broadcast
// workloads — update-transaction mixes, read-only client transactions
// with cached (out-of-cycle-order) reads, uplink update commits, and
// faultair loss/doze schedules — drives the real server and validator
// implementations over the same air, and checks, per read-only
// transaction, the inclusion chain the paper proves:
//
//	Datacycle-accept ⊆ R-Matrix-accept ⊆ F-Matrix-accept
//	                 ⊆ APPROX-accept  ⊆ update consistent
//
// (Theorems 1, 3 and 6), plus the server-side invariants: incremental
// C-matrix maintenance equals a from-scratch rebuild every cycle
// (Theorem 2), copy-on-write snapshots stay bit-identical to deep
// clones, and two servers fed the identical commit stream stay in
// lockstep. A protocol that silently over-accepts is a safety bug; one
// that over-rejects relative to the lattice is a performance bug — the
// oracle flags both. Failures are minimized by a delta-debugging
// shrinker and persisted to a corpus that replays on every go test.
package conformance

import (
	"fmt"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/faultair"
)

// PlannedRead is one read of a client transaction.
type PlannedRead struct {
	// Obj is the object read. Objects within one transaction are
	// distinct (the paper's well-formedness assumption).
	Obj int `json:"obj"`
	// Step is how many cycles the client lets pass before tuning in for
	// this read (0 = same cycle as the previous read).
	Step int `json:"step,omitempty"`
	// CacheAge, when positive, serves the read from a local cache entry
	// roughly CacheAge cycles old instead of off the air: the read is
	// validated at the (older, received) cycle the entry was cached in,
	// so reads can be out of cycle order within the transaction. The
	// first read of a transaction is always fresh.
	CacheAge int `json:"cacheAge,omitempty"`
}

// CacheProfile is one client's quasi-caching configuration (paper
// §3.3): how stale its cache may serve, how big the cache is, and —
// for partial replicas — which objects it reads at all.
type CacheProfile struct {
	// T is the currency bound in cycles: a cached read may be served up
	// to T cycles after the cycle it was cached in. 0 disables caching
	// (every read fresh); -1 is the unbounded (T = ∞) variant.
	T int `json:"t"`
	// Size, when positive, bounds the modeled cache: at most Size reads
	// of one transaction can be served from cache; the rest degrade to
	// fresh reads (the entry was evicted).
	Size int `json:"size,omitempty"`
	// Subset, when non-empty, is the client's read footprint: a partial
	// replica reads, and so caches, only these objects (Validate enforces
	// this). It hears every object; only the client knows its footprint.
	Subset []int `json:"subset,omitempty"`
}

// Unbounded reports whether the profile's currency bound is T = ∞.
func (p CacheProfile) Unbounded() bool { return p.T < 0 }

// PlannedTxn is one client transaction: a sequence of reads and, for
// update transactions, the objects written and shipped up the uplink.
type PlannedTxn struct {
	// Start is the earliest cycle the transaction begins reading in.
	Start cmatrix.Cycle `json:"start"`
	// Reads is the read program, in order.
	Reads []PlannedRead `json:"reads"`
	// Writes, when non-empty, makes this an update transaction: after
	// its reads it submits (reads, writes) over the uplink and the
	// server validates and possibly commits it.
	Writes []int `json:"writes,omitempty"`
	// SubmitLag is how many cycles pass between the last read and the
	// uplink commit arriving at the server.
	SubmitLag int `json:"submitLag,omitempty"`
}

// PlannedCommit is one background (server-local) update transaction.
type PlannedCommit struct {
	// At is the broadcast cycle during which the transaction commits;
	// it becomes visible to reads from cycle At+1 on.
	At cmatrix.Cycle `json:"at"`
	// ReadSet and WriteSet are the objects read and written. WriteSet
	// is non-empty (a read-only server transaction is a no-op).
	ReadSet  []int `json:"readSet,omitempty"`
	WriteSet []int `json:"writeSet"`
}

// AirProgram configures the optional air-scheduling layer of a
// workload: when present, the oracle rebuilds the workload's broadcast
// as a multi-disk airsched program and additionally checks the
// wire-level rebroadcast invariant — every encoded→decoded bucket
// occurrence within a major cycle, delta chains included, must carry
// exactly the cycle-start control column (Theorems 1 and 2 pushed down
// to the frame codec).
type AirProgram struct {
	// Disks is the broadcast-disk count (>= 1; 1 is the flat program).
	Disks int `json:"disks"`
	// IndexM is the (1,m) air-index segment count; 0 broadcasts no index.
	IndexM int `json:"indexM,omitempty"`
	// Skew is the zipf θ of the access-frequency estimate feeding the
	// disk partition; 0 is uniform.
	Skew float64 `json:"skew,omitempty"`
	// RefreshEvery is the full-column refresh period of the delta
	// chains; 0 transmits every column in full.
	RefreshEvery int `json:"refreshEvery,omitempty"`
}

// Workload is a fully explicit, deterministic conformance scenario:
// running it twice produces the identical trace, verdicts and induced
// history. Workloads come from Generate (seeded) or from corpus files
// (shrunk counterexamples).
type Workload struct {
	// Seed records the generator seed the workload came from (0 for
	// hand-built or shrunk workloads); informational.
	Seed int64 `json:"seed,omitempty"`
	// Defect, when set, induces a known bug for this run (see Defect).
	// Shrink never changes it.
	Defect Defect `json:"defect,omitempty"`
	// Objects is the database size n.
	Objects int `json:"objects"`
	// Cycles is how many broadcast cycles the run spans.
	Cycles cmatrix.Cycle `json:"cycles"`
	// Commits are the background update transactions.
	Commits []PlannedCommit `json:"commits,omitempty"`
	// Clients holds each client's transaction programs.
	Clients [][]PlannedTxn `json:"clients,omitempty"`
	// Caches, when non-empty, assigns client i the quasi-cache profile
	// Caches[min(i, len-1)]. Empty (the pre-profile corpus default)
	// leaves every client unconstrained: cached reads use their raw
	// CacheAge, exactly as before profiles existed.
	Caches []CacheProfile `json:"caches,omitempty"`
	// Groups is the group count g of the grouped lockstep server's
	// partition; 0 picks the default max(1, Objects/2), so corpus entries
	// recorded before the grouped participant existed replay unchanged.
	Groups int `json:"groups,omitempty"`
	// RegroupEvery, when > 0, lets the grouped server re-derive its
	// partition from the write heat every RegroupEvery cycles
	// (deterministic regroup epochs).
	RegroupEvery int `json:"regroupEvery,omitempty"`
	// Shards, when > 0, additionally replays the workload's commit
	// stream through a hashring-partitioned fleet of Shards per-shard
	// servers in lockstep with a single logical reference server: uplink
	// verdicts must agree, per-shard control must dominate (and at
	// Shards == 1 equal, bit-for-bit on the wire) the reference, and the
	// sharded read-only acceptance — per-shard Theorem 1/2 validation
	// plus the cross-shard cycle-alignment check — must stay inside the
	// F-Matrix acceptance. 0 (the pre-sharding corpus default) skips the
	// sharded participant entirely.
	Shards int `json:"shards,omitempty"`
	// Faults is the reception-fault profile applied to every client's
	// tuner (the zero profile delivers everything).
	Faults faultair.Profile `json:"faults,omitempty"`
	// Air, when non-nil, layers an airsched broadcast program over the
	// run and enables the wire-level rebroadcast-column check.
	Air *AirProgram `json:"air,omitempty"`
}

// Size caps enforced by Validate, protecting the replay and fuzz paths
// from pathological (or adversarial) corpus input. The exact update-
// consistency checker is exponential in the worst case, so workloads
// must stay small.
const (
	maxObjects      = 64
	maxCycles       = 4096
	maxCommits      = 512
	maxClients      = 16
	maxTxnsPerCli   = 64
	maxReadsPerTxn  = 32
	maxStep         = 64
	maxCacheAge     = 64
	maxSubmitLag    = 64
	maxSetSize      = 32
	maxFaultWindows = 64
	maxDisks        = 8
	maxIndexM       = 64
	maxSkew         = 4.0
	maxRefresh      = 64
	maxRegroupEvery = 64
	maxShards       = 8
)

// ProfileFor resolves the cache profile client uses, nil when the
// workload assigns none.
func (w *Workload) ProfileFor(client int) *CacheProfile {
	if len(w.Caches) == 0 {
		return nil
	}
	i := client
	if i >= len(w.Caches) {
		i = len(w.Caches) - 1
	}
	return &w.Caches[i]
}

// GroupsOrDefault resolves the grouped participant's group count: the
// explicit Groups when set, otherwise max(1, Objects/2) — mid-spectrum
// between the vector (g = 1) and the full matrix (g = n).
func (w *Workload) GroupsOrDefault() int {
	if w.Groups > 0 {
		return w.Groups
	}
	return max(1, w.Objects/2)
}

func checkObjSet(n int, what string, set []int, requireDistinct bool) error {
	if len(set) > maxSetSize {
		return fmt.Errorf("conformance: %s has %d objects, cap %d", what, len(set), maxSetSize)
	}
	seen := map[int]bool{}
	for _, o := range set {
		if o < 0 || o >= n {
			return fmt.Errorf("conformance: %s references object %d, range [0,%d)", what, o, n)
		}
		if requireDistinct && seen[o] {
			return fmt.Errorf("conformance: %s repeats object %d", what, o)
		}
		seen[o] = true
	}
	return nil
}

// Validate reports the first structural problem with the workload:
// out-of-range objects, repeated reads within a transaction, cycle
// references outside the run, or sizes beyond the harness caps.
func (w *Workload) Validate() error {
	switch {
	case w.Defect < 0 || w.Defect >= defectCount:
		return fmt.Errorf("conformance: unknown defect %d", int(w.Defect))
	case w.Objects < 1 || w.Objects > maxObjects:
		return fmt.Errorf("conformance: Objects = %d, need [1,%d]", w.Objects, maxObjects)
	case w.Cycles < 1 || w.Cycles > maxCycles:
		return fmt.Errorf("conformance: Cycles = %d, need [1,%d]", w.Cycles, maxCycles)
	case len(w.Commits) > maxCommits:
		return fmt.Errorf("conformance: %d commits, cap %d", len(w.Commits), maxCommits)
	case len(w.Clients) > maxClients:
		return fmt.Errorf("conformance: %d clients, cap %d", len(w.Clients), maxClients)
	case len(w.Faults.Windows) > maxFaultWindows:
		return fmt.Errorf("conformance: %d fault windows, cap %d", len(w.Faults.Windows), maxFaultWindows)
	case w.Faults.Loss >= 1 || w.Faults.Doze >= 1:
		return fmt.Errorf("conformance: fault rates must stay below 1 (no cycle is ever received otherwise)")
	case w.Groups < 0 || w.Groups > w.Objects:
		return fmt.Errorf("conformance: Groups = %d, range [0,%d]", w.Groups, w.Objects)
	case w.RegroupEvery < 0 || w.RegroupEvery > maxRegroupEvery:
		return fmt.Errorf("conformance: RegroupEvery = %d, range [0,%d]", w.RegroupEvery, maxRegroupEvery)
	case w.Shards < 0 || w.Shards > maxShards:
		return fmt.Errorf("conformance: Shards = %d, range [0,%d]", w.Shards, maxShards)
	case w.Shards > w.Objects:
		return fmt.Errorf("conformance: Shards = %d cannot cover %d objects", w.Shards, w.Objects)
	}
	if err := w.Faults.Validate(); err != nil {
		return err
	}
	if a := w.Air; a != nil {
		switch {
		case a.Disks < 1 || a.Disks > maxDisks:
			return fmt.Errorf("conformance: Air.Disks = %d, need [1,%d]", a.Disks, maxDisks)
		case a.IndexM < 0 || a.IndexM > maxIndexM:
			return fmt.Errorf("conformance: Air.IndexM = %d, range [0,%d]", a.IndexM, maxIndexM)
		case a.Skew < 0 || a.Skew > maxSkew:
			return fmt.Errorf("conformance: Air.Skew = %g, range [0,%g]", a.Skew, maxSkew)
		case a.RefreshEvery < 0 || a.RefreshEvery > maxRefresh:
			return fmt.Errorf("conformance: Air.RefreshEvery = %d, range [0,%d]", a.RefreshEvery, maxRefresh)
		}
	}
	for ci, c := range w.Commits {
		if c.At < 1 || c.At > w.Cycles {
			return fmt.Errorf("conformance: commit %d at cycle %d, range [1,%d]", ci, c.At, w.Cycles)
		}
		if len(c.WriteSet) == 0 {
			return fmt.Errorf("conformance: commit %d has an empty write set", ci)
		}
		if err := checkObjSet(w.Objects, fmt.Sprintf("commit %d read set", ci), c.ReadSet, true); err != nil {
			return err
		}
		if err := checkObjSet(w.Objects, fmt.Sprintf("commit %d write set", ci), c.WriteSet, true); err != nil {
			return err
		}
	}
	if len(w.Caches) > maxClients {
		return fmt.Errorf("conformance: %d cache profiles, cap %d", len(w.Caches), maxClients)
	}
	for pi, prof := range w.Caches {
		switch {
		case prof.T < -1 || prof.T > maxCacheAge:
			return fmt.Errorf("conformance: cache profile %d T = %d, range [-1,%d]", pi, prof.T, maxCacheAge)
		case prof.Size < 0 || prof.Size > maxObjects:
			return fmt.Errorf("conformance: cache profile %d Size = %d, range [0,%d]", pi, prof.Size, maxObjects)
		}
		if err := checkObjSet(w.Objects, fmt.Sprintf("cache profile %d subset", pi), prof.Subset, true); err != nil {
			return err
		}
	}
	for cli, txns := range w.Clients {
		// A partial replica's read programs stay inside its footprint.
		if prof := w.ProfileFor(cli); prof != nil && len(prof.Subset) > 0 {
			in := map[int]bool{}
			for _, o := range prof.Subset {
				in[o] = true
			}
			for ti, txn := range txns {
				for _, r := range txn.Reads {
					if !in[r.Obj] {
						return fmt.Errorf("conformance: client %d txn %d reads object %d outside its subset %v", cli, ti, r.Obj, prof.Subset)
					}
				}
			}
		}
		if len(txns) > maxTxnsPerCli {
			return fmt.Errorf("conformance: client %d has %d transactions, cap %d", cli, len(txns), maxTxnsPerCli)
		}
		for ti, txn := range txns {
			what := fmt.Sprintf("client %d txn %d", cli, ti)
			if txn.Start < 1 {
				return fmt.Errorf("conformance: %s starts at cycle %d, need >= 1", what, txn.Start)
			}
			if len(txn.Reads) == 0 || len(txn.Reads) > maxReadsPerTxn {
				return fmt.Errorf("conformance: %s has %d reads, need [1,%d]", what, len(txn.Reads), maxReadsPerTxn)
			}
			if txn.SubmitLag < 0 || txn.SubmitLag > maxSubmitLag {
				return fmt.Errorf("conformance: %s SubmitLag = %d, range [0,%d]", what, txn.SubmitLag, maxSubmitLag)
			}
			objs := make([]int, 0, len(txn.Reads))
			for ri, r := range txn.Reads {
				if r.Step < 0 || r.Step > maxStep {
					return fmt.Errorf("conformance: %s read %d Step = %d, range [0,%d]", what, ri, r.Step, maxStep)
				}
				if r.CacheAge < 0 || r.CacheAge > maxCacheAge {
					return fmt.Errorf("conformance: %s read %d CacheAge = %d, range [0,%d]", what, ri, r.CacheAge, maxCacheAge)
				}
				objs = append(objs, r.Obj)
			}
			if err := checkObjSet(w.Objects, what+" reads", objs, true); err != nil {
				return err
			}
			if err := checkObjSet(w.Objects, what+" writes", txn.Writes, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns a deep copy sharing no mutable state with w.
func (w *Workload) Clone() *Workload {
	c := &Workload{
		Seed: w.Seed, Defect: w.Defect, Objects: w.Objects, Cycles: w.Cycles,
		Groups: w.Groups, RegroupEvery: w.RegroupEvery,
		Shards: w.Shards, Faults: w.Faults,
	}
	c.Faults.Windows = append([]faultair.Window(nil), w.Faults.Windows...)
	if len(w.Caches) > 0 {
		c.Caches = make([]CacheProfile, len(w.Caches))
		for i, p := range w.Caches {
			c.Caches[i] = CacheProfile{T: p.T, Size: p.Size, Subset: append([]int(nil), p.Subset...)}
		}
	}
	if w.Air != nil {
		air := *w.Air
		c.Air = &air
	}
	c.Commits = make([]PlannedCommit, len(w.Commits))
	for i, pc := range w.Commits {
		c.Commits[i] = PlannedCommit{
			At:       pc.At,
			ReadSet:  append([]int(nil), pc.ReadSet...),
			WriteSet: append([]int(nil), pc.WriteSet...),
		}
	}
	c.Clients = make([][]PlannedTxn, len(w.Clients))
	for i, txns := range w.Clients {
		c.Clients[i] = make([]PlannedTxn, len(txns))
		for j, t := range txns {
			c.Clients[i][j] = PlannedTxn{
				Start:     t.Start,
				Reads:     append([]PlannedRead(nil), t.Reads...),
				Writes:    append([]int(nil), t.Writes...),
				SubmitLag: t.SubmitLag,
			}
		}
	}
	return c
}

// TxnCount reports the total number of transactions in the workload —
// background commits plus client transactions — the size measure the
// shrinker minimizes.
func (w *Workload) TxnCount() int {
	n := len(w.Commits)
	for _, txns := range w.Clients {
		n += len(txns)
	}
	return n
}
