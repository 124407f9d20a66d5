package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// TestConcurrentCrossShardCommits: goroutines submit overlapping
// transactions, most of them cross-shard, through a 3-shard fleet's
// coordinator while another goroutine steps the fleet. No call may
// deadlock (a cross-shard commit takes its shards' locks in ascending
// shard id, everything else one lock at a time), every refusal must be
// a conflict, and each shard's audit log must hold exactly the
// projections of the committed transactions that wrote there: a
// committed transaction on every shard it wrote, a refused one on none.
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
}
