package conformance

import (
	"math/rand"
	"sort"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/faultair"
)

// sortInts orders a drawn object set ascending (profile subsets are
// canonical in sorted form).
func sortInts(v []int) { sort.Ints(v) }

// Params bounds the workload generator. All counts are inclusive upper
// bounds; the generator draws the actual shape from the seed.
type Params struct {
	// MaxObjects bounds the database size n (>= 2).
	MaxObjects int
	// MaxCycles bounds the run length.
	MaxCycles int
	// MaxCommits bounds the number of background update transactions.
	MaxCommits int
	// MaxClients bounds the number of clients.
	MaxClients int
	// MaxTxns bounds the transactions per client.
	MaxTxns int
	// MaxReads bounds the reads per transaction.
	MaxReads int
	// UpdateProb is the probability a client transaction is an uplink
	// update.
	UpdateProb float64
	// CacheProb is the per-read probability (first read excluded) that
	// a read is served from the cache at an older cycle.
	CacheProb float64
	// Faults enables random loss/doze schedules and scripted doze
	// windows.
	Faults bool
	// Cache enables cached (out-of-cycle-order) reads.
	Cache bool
	// Air is the probability a workload carries an airsched broadcast
	// program (multi-disk schedule, optional (1,m) index and delta
	// chains) and so runs the wire-level rebroadcast check.
	Air float64
	// MaxAirSkew bounds the zipf θ drawn for air-program workloads.
	MaxAirSkew float64
}

// DefaultParams returns the soak defaults: workloads small enough for
// the exponential exact checker, varied enough to exercise every
// protocol path (fresh and cached reads, uplink commits, faults).
func DefaultParams() Params {
	return Params{
		MaxObjects: 6,
		MaxCycles:  12,
		MaxCommits: 8,
		MaxClients: 2,
		MaxTxns:    3,
		MaxReads:   4,
		UpdateProb: 0.25,
		CacheProb:  0.35,
		Faults:     true,
		Cache:      true,
		Air:        0.5,
		MaxAirSkew: 0.95,
	}
}

// Generate derives a fully explicit workload from the seed under the
// given bounds. The same (seed, params) pair always yields the
// identical workload, so a violation reproduces from its seed tuple
// alone.
func Generate(seed int64, p Params) *Workload {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(max(p.MaxObjects-1, 1))
	cycles := cmatrix.Cycle(4 + rng.Intn(max(p.MaxCycles-3, 1)))
	w := &Workload{Seed: seed, Objects: n, Cycles: cycles}

	pickDistinct := func(k int) []int {
		if k > n {
			k = n
		}
		perm := rng.Perm(n)
		return append([]int(nil), perm[:k]...)
	}

	// Background commits, biased toward the early cycles so client
	// reads actually see committed state.
	for i := 0; i < rng.Intn(p.MaxCommits+1); i++ {
		c := PlannedCommit{
			At:       cmatrix.Cycle(1 + rng.Intn(int(cycles))),
			WriteSet: pickDistinct(1 + rng.Intn(2)),
		}
		if rng.Float64() < 0.7 {
			c.ReadSet = pickDistinct(rng.Intn(3))
		}
		w.Commits = append(w.Commits, c)
	}

	clients := 1 + rng.Intn(max(p.MaxClients, 1))

	// Quasi-cache profiles: about half the cached workloads assign every
	// client an explicit (T, size, subset) profile, spanning the whole
	// currency spectrum — T = 0 (caching off), finite bounds, and T = ∞
	// — plus occasional cache-size limits and partial-replication
	// footprints (the objects a client reads and so caches). Drawn before
	// the read programs so footprint clients keep their reads inside.
	if p.Cache && rng.Intn(2) == 0 {
		ts := []int{0, 1, 2, 4, 8, -1}
		for cli := 0; cli < clients; cli++ {
			prof := CacheProfile{T: ts[rng.Intn(len(ts))]}
			if rng.Intn(3) == 0 {
				prof.Size = 1 + rng.Intn(3)
			}
			if rng.Intn(4) == 0 && n >= 2 {
				sub := pickDistinct(1 + rng.Intn(n-1))
				sortInts(sub)
				prof.Subset = sub
			}
			w.Caches = append(w.Caches, prof)
		}
	}

	for cli := 0; cli < clients; cli++ {
		// A partial replica draws its reads from its footprint only.
		pickRead := pickDistinct
		if prof := w.ProfileFor(cli); prof != nil && len(prof.Subset) > 0 {
			sub := prof.Subset
			pickRead = func(k int) []int {
				if k > len(sub) {
					k = len(sub)
				}
				perm := rng.Perm(len(sub))
				out := make([]int, k)
				for i := 0; i < k; i++ {
					out[i] = sub[perm[i]]
				}
				return out
			}
		}
		var txns []PlannedTxn
		for t := 0; t < 1+rng.Intn(max(p.MaxTxns, 1)); t++ {
			txn := PlannedTxn{Start: cmatrix.Cycle(1 + rng.Intn(int(cycles)))}
			nr := 1 + rng.Intn(max(p.MaxReads, 1))
			for ri, obj := range pickRead(nr) {
				r := PlannedRead{Obj: obj, Step: rng.Intn(3)}
				if p.Cache && ri > 0 && rng.Float64() < p.CacheProb {
					// Ages deliberately overshoot small T bounds so the
					// currency clamp (and the staleness oracle under
					// DefectCacheSkip) actually gets exercised.
					r.CacheAge = 1 + rng.Intn(4)
				}
				txn.Reads = append(txn.Reads, r)
			}
			if rng.Float64() < p.UpdateProb {
				// Update transactions write a subset of what they read,
				// mirroring the simulator's client update workload.
				nw := 1 + rng.Intn(len(txn.Reads))
				for i := 0; i < nw; i++ {
					txn.Writes = append(txn.Writes, txn.Reads[i].Obj)
				}
				txn.SubmitLag = rng.Intn(2)
			}
			txns = append(txns, txn)
		}
		w.Clients = append(w.Clients, txns)
	}

	if p.Faults && rng.Float64() < 0.6 {
		prof := faultair.Profile{Seed: seed}
		switch rng.Intn(3) {
		case 0:
			prof.Loss = 0.15
		case 1:
			prof.Loss = 0.35
		case 2:
			prof.Doze = 0.15
			prof.DozeLen = 1 + rng.Intn(2)
		}
		if rng.Float64() < 0.3 {
			from := cmatrix.Cycle(1 + rng.Intn(int(cycles)))
			prof.Windows = []faultair.Window{{
				Client: rng.Intn(clients),
				From:   from,
				To:     min(from+cmatrix.Cycle(rng.Intn(3)), cycles),
			}}
		}
		w.Faults = prof
	}

	// Grouped lockstep participant: sometimes pin an explicit group
	// count anywhere on the g-spectrum (1 = vector-shaped, n =
	// matrix-shaped), sometimes let it regroup on the write heat.
	if rng.Intn(2) == 0 {
		w.Groups = 1 + rng.Intn(n)
	}
	if rng.Intn(3) == 0 {
		w.RegroupEvery = 1 + rng.Intn(4)
	}

	// Sharded lockstep participant: sometimes re-drive the commit stream
	// through a hashring-partitioned fleet (k = 1 degenerates to the
	// byte-identity check against the unsharded server).
	if rng.Intn(3) == 0 {
		ks := []int{1, 2, 4}
		k := ks[rng.Intn(len(ks))]
		if k <= n {
			w.Shards = k
		}
	}

	if rng.Float64() < p.Air {
		a := &AirProgram{
			Disks: 1 + rng.Intn(3),
			Skew:  rng.Float64() * p.MaxAirSkew,
		}
		if rng.Intn(2) == 0 {
			a.IndexM = 1 << rng.Intn(3) // 1, 2 or 4 index segments
		}
		if rng.Intn(2) == 0 {
			a.RefreshEvery = 1 + rng.Intn(4)
		}
		w.Air = a
	}
	return w
}
