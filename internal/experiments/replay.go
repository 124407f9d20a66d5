package experiments

import "fmt"

// The planned-stream kit under the replay studies (grouped, quasi,
// shard): each pre-generates one workload — the committed update stream
// and every client's transaction object-sets — and replays it in cycle
// lock-step against each control representation, cache policy or
// deployment, so the workload is identical across passes and the only
// varying factor is the thing under study.

// The grouped and shard studies' fixed workload: the uplink commit rate,
// the reads per client transaction (one per cycle), the zipf skew θ of
// both the update and the read access law (quasi shares it), and the
// timestamp width TS each control entry is priced at on the wire.
const (
	replayCommitsPerCycle = 8
	replayTxnReads        = 4
	replayTheta           = 0.95
	replayTimestampBits   = 16
)

// plannedCommit is one committed server transaction of a plan.
type plannedCommit struct {
	readSet  []int
	writeSet []int
}

// plan is the pre-generated workload shared by every pass of one study.
type plan struct {
	commits [][]plannedCommit // per cycle
	txns    [][][]int         // txns[client][k] = k-th txn's objects
}

// newPlan draws a plan in the order every study's RNG stream is pinned
// to: the commits cycle by cycle, then client by client — client is
// called once per client and returns the draw of that client's next
// planned object-set. One planned transaction per cycle is a strict
// upper bound on how many any client can start (each takes >= 1 cycle),
// so every pass consumes the same k-th object-set for its k-th
// transaction no matter how often it restarts.
func newPlan(cycles, commitsPerCycle, clients int, commit func() plannedCommit, client func() func() []int) *plan {
	p := &plan{txns: make([][][]int, clients)}
	for c := 0; c < cycles; c++ {
		var cyc []plannedCommit
		for i := 0; i < commitsPerCycle; i++ {
			cyc = append(cyc, commit())
		}
		p.commits = append(p.commits, cyc)
	}
	for cli := range p.txns {
		next := client()
		for t := 0; t < cycles; t++ {
			p.txns[cli] = append(p.txns[cli], next())
		}
	}
	return p
}

// pickDistinct draws from pick until it holds k distinct objects.
func pickDistinct(k int, pick func() int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		obj := pick()
		dup := false
		for _, o := range out {
			dup = dup || o == obj
		}
		if !dup {
			out = append(out, obj)
		}
	}
	return out
}

// checkReplayConfig rejects a configuration no plan can be drawn for.
func checkReplayConfig(study string, cfg any, objects, txnReads, clients int) error {
	if objects < 2 || txnReads < 1 || clients < 1 || txnReads > objects {
		return fmt.Errorf("experiments: degenerate %s config %+v", study, cfg)
	}
	return nil
}

// cursor walks one client's planned transactions: one read per cycle,
// restart-until-success keeping the same object-set, the next planned
// set after each commit.
type cursor struct {
	txns [][]int
	txn  int // index of the transaction in progress
	pos  int // reads of it validated so far
}

// step attempts the transaction's next read. read validates one read;
// commit runs after the set's last read and may still refuse; reset
// clears the study's per-transaction state and runs whenever the
// transaction ends, by restart or by commit.
func (c *cursor) step(read func(obj int) bool, commit func() bool, reset func()) (committed, restarted bool) {
	if c.txn >= len(c.txns) {
		return false, false
	}
	objs := c.txns[c.txn]
	if !read(objs[c.pos]) {
		c.pos = 0
		reset()
		return false, true
	}
	c.pos++
	if c.pos < len(objs) {
		return false, false
	}
	c.pos = 0
	committed = commit()
	reset()
	if committed {
		c.txn++
	}
	return committed, !committed
}
