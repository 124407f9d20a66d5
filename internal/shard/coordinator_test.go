package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"broadcastcc/internal/bctest"
	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/core"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// TestConcurrentCrossShardCommits: goroutines submit overlapping
// transactions, most of them cross-shard, through a 3-shard fleet's
// coordinator while another goroutine steps the fleet and two router
// readers run read-only transactions over the same objects. No call may
// deadlock (a cross-shard commit and the fleet's cycle edge take the
// shard locks in ascending shard id, everything else one lock at a
// time), every refusal must be a conflict, and each shard's audit log
// must hold exactly the projections of the committed transactions that
// wrote there: a committed transaction on every shard it wrote, a
// refused one on none, and at one commit cycle on all of them. The
// readers' committed reads, with the updates in audit order, must pass
// APPROX.
func TestConcurrentCrossShardCommits(t *testing.T) {
	const (
		n         = 24
		shards    = 3
		workers   = 4
		perWorker = 150
	)
	base := server.Config{Objects: n, Algorithm: protocol.FMatrix, ObjectBits: 64, TimestampBits: 32, Audit: true}
	f, err := NewFleet(FleetConfig{Base: base, Seed: 11, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	m, coord := f.Mapping(), f.Coordinator()
	f.StartCycle()

	stop := make(chan struct{})
	var stepper sync.WaitGroup
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
				f.StartCycle()
			}
		}
	}()

	// Two router readers, each with its own tuners, read three objects
	// per transaction, about one transaction per cycle, until the
	// workers are done and each has committed ten.
	readSets := make([][][]protocol.ReadAt, 2)
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	for rd := range readSets {
		tuners := make([]*client.Client, shards)
		for s := range tuners {
			tuners[s] = client.New(client.Config{Algorithm: base.Algorithm}, f.Subscribe(s, 64))
		}
		r, err := NewRouter(m, tuners, coord)
		if err != nil {
			t.Fatal(err)
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + rd)))
			for {
				select {
				case <-stopReads:
					if len(readSets[rd]) >= 10 {
						return
					}
				default:
				}
				objs := rng.Perm(n)[:3]
				reads, err := r.RunReadOnly(0, func(txn *ReadTxn) error {
					for _, obj := range objs {
						if _, err := txn.Read(obj); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				readSets[rd] = append(readSets[rd], reads)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}

	// Each worker reads two objects at their shard's current cycle and
	// writes two others, drawn from a database small enough that the
	// transactions overlap all the time.
	type submission struct {
		req protocol.UpdateRequest
		err error
	}
	subs := make([][]submission, workers)
	var wg sync.WaitGroup
	for w := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				objs := rng.Perm(n)[:4]
				var req protocol.UpdateRequest
				for _, obj := range objs[:2] {
					req.Reads = append(req.Reads, protocol.ReadAt{Obj: obj, Cycle: f.Node(m.ShardOf(obj)).CurrentCycle()})
				}
				for _, obj := range objs[2:] {
					req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: obj, Value: []byte(fmt.Sprintf("w%d.%d", w, i))})
				}
				subs[w] = append(subs[w], submission{req, coord.SubmitUpdate(req)})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		// A deadlock holds shard locks that Close needs, so the fleet is
		// closed on the normal path only, and the binary ends here.
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("submissions still running after a minute:\n%s", buf[:runtime.Stack(buf, true)]))
	}
	close(stopReads)
	readers.Wait()
	close(stop)
	stepper.Wait()
	f.Close()

	want := make([]map[string]int, shards)
	for s := range want {
		want[s] = map[string]int{}
	}
	commits, refusals, cross := 0, 0, 0
	for _, ws := range subs {
		for _, sub := range ws {
			reads, writes := make([][]int, shards), make([][]int, shards)
			for _, r := range sub.req.Reads {
				s := m.ShardOf(r.Obj)
				reads[s] = append(reads[s], m.Local(r.Obj))
			}
			involved := map[int]bool{}
			for _, w := range sub.req.Writes {
				s := m.ShardOf(w.Obj)
				writes[s] = append(writes[s], m.Local(w.Obj))
				involved[s] = true
			}
			for s := range reads {
				if len(reads[s]) > 0 {
					involved[s] = true
				}
			}
			if len(involved) > 1 {
				cross++
			}
			if sub.err != nil {
				if !errors.Is(sub.err, server.ErrConflict) {
					t.Fatalf("refused with %v, want a conflict", sub.err)
				}
				refusals++
				continue
			}
			commits++
			for s := range writes {
				if len(writes[s]) > 0 {
					want[s][fmt.Sprint(reads[s], writes[s])]++
				}
			}
		}
	}
	if commits == 0 || refusals == 0 || cross == 0 {
		t.Fatalf("%d commits, %d refusals, %d cross-shard: the stream never overlapped", commits, refusals, cross)
	}
	for s := range want {
		got := map[string]int{}
		for _, c := range f.Node(s).AuditLog() {
			got[fmt.Sprint(c.ReadSet, c.WriteSet)]++
		}
		for k, v := range want[s] {
			if got[k] != v {
				t.Errorf("shard %d: committed projection %s appears %d times in the audit log, want %d", s, k, got[k], v)
			}
		}
		for k, v := range got {
			if want[s][k] == 0 {
				t.Errorf("shard %d: audit log holds %d× %s, which no committed transaction wrote", s, v, k)
			}
		}
	}
	snap := f.ObsSnapshot()
	if c, a, x := snap.Counters["shard_commits_total"], snap.Counters["shard_aborts_total"], snap.Counters["shard_cross_total"]; c != int64(commits) || a != int64(refusals) || x != int64(cross) {
		t.Fatalf("coordinator counted %d commits, %d aborts, %d cross-shard; the callers saw %d, %d, %d", c, a, x, commits, refusals, cross)
	}

	committed := make([][]protocol.UpdateRequest, workers)
	for w, ws := range subs {
		for _, sub := range ws {
			if sub.err == nil {
				committed[w] = append(committed[w], sub.req)
			}
		}
	}
	logs := make([][]cmatrix.Commit, shards)
	for s := range logs {
		logs[s] = f.Node(s).AuditLog()
	}
	// Every projection of a commit carries one commit cycle: some order
	// of the logs places every commit at one cycle on all of its shards.
	order, err := auditOrder(m, logs, committed, true)
	if err != nil {
		if order, err = auditOrder(m, logs, committed, false); err != nil {
			t.Fatal(err)
		}
		split := 0
		for _, p := range order {
			for _, c := range p.cycles {
				if c != p.cycle {
					if split++; split == 1 {
						t.Errorf("a cross-shard commit was installed at cycles %v (shard: cycle)", p.cycles)
					}
					break
				}
			}
		}
		t.Errorf("no order of the audit logs gives every commit one cycle; one gives %d of %d commits more than one", split, len(order))
	}
	log := make([]cmatrix.Commit, len(order))
	for i, p := range order {
		log[i] = cmatrix.Commit{Cycle: p.cycle}
		for _, r := range p.req.Reads {
			log[i].ReadSet = append(log[i].ReadSet, r.Obj)
		}
		for _, w := range p.req.Writes {
			log[i].WriteSet = append(log[i].WriteSet, w.Obj)
		}
	}
	// APPROX judges each read-only transaction against the updates
	// alone, so one history per transaction decides what the history of
	// all of them would.
	reads := append(readSets[0], readSets[1]...)
	if len(reads) == 0 {
		t.Fatal("the readers committed no read-only transaction")
	}
	for _, rs := range reads {
		h, _ := bctest.InducedHistoryWithTxn(log, rs)
		if v := core.Approx(h); !v.OK {
			t.Fatalf("router read-only transaction %v over %d commits violates APPROX: %s", rs, len(log), v.Reason)
		}
	}
}

// placedCommit is a committed transaction placed in the fleet's commit
// order: its global request, the cycle of its audit entry on each shard
// it wrote, and the latest of them.
type placedCommit struct {
	req    protocol.UpdateRequest
	cycles map[int]cmatrix.Cycle
	cycle  cmatrix.Cycle
}

// auditOrder recovers one commit order of the fleet out of the shards'
// audit logs: each log is the order its shard installed in, a worker's
// commits install in the order it submitted them, and a commit that read
// x at cycle r precedes every commit that wrote x at cycle r or later
// (the later writer would have refused it). Entries name no transaction,
// so each step places the next unplaced commit of some worker whose
// projections head the logs of every shard it wrote, earliest cycle
// first, and with oneCycle only where those heads share one cycle. The
// order comes back stably sorted by commit cycle, which keeps every
// log's order.
func auditOrder(m *Mapping, logs [][]cmatrix.Commit, workers [][]protocol.UpdateRequest, oneCycle bool) ([]placedCommit, error) {
	project := func(req protocol.UpdateRequest, s int) string {
		var reads, writes []int
		for _, r := range req.Reads {
			if m.ShardOf(r.Obj) == s {
				reads = append(reads, m.Local(r.Obj))
			}
		}
		for _, w := range req.Writes {
			if m.ShardOf(w.Obj) == s {
				writes = append(writes, m.Local(w.Obj))
			}
		}
		if len(writes) == 0 {
			return ""
		}
		return fmt.Sprint(reads, writes)
	}
	heads := make([]int, len(logs))
	next := make([]int, len(workers))
	// atHeads reports the cycles of req's projections if each one heads
	// its shard's log.
	atHeads := func(req protocol.UpdateRequest) map[int]cmatrix.Cycle {
		cycles := map[int]cmatrix.Cycle{}
		for s, log := range logs {
			key := project(req, s)
			if key == "" {
				continue
			}
			if heads[s] == len(log) || fmt.Sprint(log[heads[s]].ReadSet, log[heads[s]].WriteSet) != key {
				return nil
			}
			cycles[s] = log[heads[s]].Cycle
		}
		return cycles
	}
	// readFirst reports whether an unplaced commit other than worker w's
	// next read an object req writes at a cycle no later than req's.
	readFirst := func(w int, req protocol.UpdateRequest, cycles map[int]cmatrix.Cycle) bool {
		for v, q := range workers {
			for k := next[v]; k < len(q); k++ {
				if v == w && k == next[w] {
					continue
				}
				for _, r := range q[k].Reads {
					for _, wr := range req.Writes {
						if wr.Obj == r.Obj && r.Cycle <= cycles[m.ShardOf(wr.Obj)] {
							return true
						}
					}
				}
			}
		}
		return false
	}
	// place extends order by depth-first search: a choice among the
	// commits that fit can dead-end later (identical projections carry
	// different cycles), so a dead end undoes it and tries the next.
	var order []placedCommit
	budget := 1 << 20
	var place func() bool
	place = func() bool {
		type fit struct {
			w      int
			cycles map[int]cmatrix.Cycle
			last   cmatrix.Cycle
		}
		var fits []fit
		for w, q := range workers {
			if next[w] == len(q) {
				continue
			}
			cycles := atHeads(q[next[w]])
			if cycles == nil || readFirst(w, q[next[w]], cycles) {
				continue
			}
			var last cmatrix.Cycle
			split := false
			for _, c := range cycles {
				split = split || (last != 0 && c != last)
				last = max(last, c)
			}
			if oneCycle && split {
				continue
			}
			fits = append(fits, fit{w, cycles, last})
		}
		if len(fits) == 0 {
			for w, q := range workers {
				if next[w] != len(q) {
					return false
				}
			}
			for s, log := range logs {
				if heads[s] != len(log) {
					return false
				}
			}
			return true
		}
		sort.SliceStable(fits, func(i, j int) bool { return fits[i].last < fits[j].last })
		for _, f := range fits {
			if budget--; budget < 0 {
				return false
			}
			order = append(order, placedCommit{req: workers[f.w][next[f.w]], cycles: f.cycles, cycle: f.last})
			for s := range f.cycles {
				heads[s]++
			}
			next[f.w]++
			if place() {
				return true
			}
			next[f.w]--
			for s := range f.cycles {
				heads[s]--
			}
			order = order[:len(order)-1]
		}
		return false
	}
	if !place() {
		return nil, errors.New("no commit order fits the audit logs")
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].cycle < order[j].cycle })
	return order, nil
}
