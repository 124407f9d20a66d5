package qcache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/wire"
)

// mutation is one scripted store operation for the crash matrix.
type mutation struct {
	del   bool
	obj   int
	value []byte
	cycle cmatrix.Cycle
	col   []cmatrix.Cycle
}

// script builds a deterministic mutation schedule.
func script(seed int64, n, objects int) []mutation {
	rng := rand.New(rand.NewSource(seed))
	muts := make([]mutation, n)
	for i := range muts {
		obj := rng.Intn(objects)
		if rng.Float64() < 0.2 {
			muts[i] = mutation{del: true, obj: obj}
			continue
		}
		col := make([]cmatrix.Cycle, objects)
		for j := range col {
			col[j] = cmatrix.Cycle(rng.Intn(40))
		}
		val := make([]byte, rng.Intn(9))
		rng.Read(val)
		muts[i] = mutation{obj: obj, value: val, cycle: cmatrix.Cycle(i + 1), col: col}
	}
	return muts
}

// replay applies a mutation prefix to a plain map — the expected
// inventory after recovering exactly k durable records.
func replay(muts []mutation, k int) map[int]Entry {
	inv := map[int]Entry{}
	for _, m := range muts[:k] {
		if m.del {
			delete(inv, m.obj)
		} else {
			inv[m.obj] = Entry{Value: m.value, Cycle: m.cycle, Col: m.col}
		}
	}
	return inv
}

func apply(t *testing.T, s *Store, m mutation) error {
	t.Helper()
	if m.del {
		return s.Delete(m.obj)
	}
	return s.Put(m.obj, m.value, m.cycle, m.col)
}

func sameInventory(t *testing.T, got map[int]Entry, want map[int]Entry) {
	t.Helper()
	if !equalInventory(got, want) {
		t.Fatalf("inventory %+v, want %+v", got, want)
	}
}

func equalInventory(got, want map[int]Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for obj, w := range want {
		g, ok := got[obj]
		if !ok || g.Cycle != w.Cycle || !bytes.Equal(g.Value, w.Value) || !reflect.DeepEqual(normCol(g.Col), normCol(w.Col)) {
			return false
		}
	}
	return true
}

func normCol(c []cmatrix.Cycle) []cmatrix.Cycle {
	if len(c) == 0 {
		return nil
	}
	return c
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	muts := script(1, 40, 8)
	for _, m := range muts {
		if err := apply(t, s, m); err != nil {
			t.Fatal(err)
		}
	}
	want := replay(muts, len(muts))
	sameInventory(t, s.Inventory(), want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameInventory(t, re.Inventory(), want)
}

// TestCrashAtEveryByte is the crash-recovery matrix: the failpoint
// writer kills the store at every byte boundary of the record stream,
// and recovery must yield exactly the inventory of the longest valid
// record prefix — never a torn record, never a lost durable one. Every
// mutation is flushed, Flush being the durability point — and the call
// the crash surfaces in, since a mutation writes nothing.
func TestCrashAtEveryByte(t *testing.T) {
	muts := script(2, 12, 5)
	// First, measure each record's framed length by writing unbounded.
	full, err := OpenOptions(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, len(muts))
	var prev int64
	for i, m := range muts {
		if err := apply(t, full, m); err != nil {
			t.Fatal(err)
		}
		if err := full.Flush(); err != nil {
			t.Fatal(err)
		}
		sizes[i] = full.size - prev
		prev = full.size
	}
	total := full.size
	full.Close()

	step := int64(1)
	if testing.Short() {
		step = 7
	}
	// Budget 0 means unlimited (no failpoint), so the matrix starts at 1.
	for budget := int64(1); budget <= total; budget += step {
		dir := t.TempDir()
		s, err := OpenOptions(dir, Options{WriteBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range muts {
			if err := apply(t, s, m); err != nil {
				t.Fatalf("budget %d: mutation: %v", budget, err)
			}
			if err := s.Flush(); err != nil {
				break // the crash
			}
		}
		// No Close: the process died. Reopen cold.
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("budget %d: reopen: %v", budget, err)
		}
		// Durable records: those whose framed bytes fit the budget whole.
		durable, used := 0, int64(0)
		for _, sz := range sizes {
			if used+sz > budget {
				break
			}
			used += sz
			durable++
		}
		sameInventory(t, re.Inventory(), replay(muts, durable))
		// The store must accept appends after recovering a torn tail.
		if err := re.Put(99, []byte("post"), 77, nil); err != nil {
			t.Fatalf("budget %d: post-recovery put: %v", budget, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("budget %d: second reopen: %v", budget, err)
		}
		if e, ok := again.Get(99); !ok || !bytes.Equal(e.Value, []byte("post")) {
			t.Fatalf("budget %d: post-recovery put not durable", budget)
		}
		again.Close()
	}
}

// flushBatch models what a flush logs for the mutations made since the
// previous one, flushed being that flush's inventory: one record per
// object the mutations changed, in first-mutation order — its final
// entry if it is cached, a delete if it is gone but was flushed, nothing
// if it came and went.
func flushBatch(flushed map[int]Entry, muts []mutation) []wire.CacheRecord {
	cur := maps.Clone(flushed)
	var order []int
	seen := map[int]bool{}
	for _, m := range muts {
		if _, ok := cur[m.obj]; m.del && !ok {
			continue // deleting an absent object changes nothing
		}
		if m.del {
			delete(cur, m.obj)
		} else {
			cur[m.obj] = Entry{Value: m.value, Cycle: m.cycle, Col: m.col}
		}
		if !seen[m.obj] {
			seen[m.obj] = true
			order = append(order, m.obj)
		}
	}
	var recs []wire.CacheRecord
	for _, obj := range order {
		if e, ok := cur[obj]; ok {
			recs = append(recs, wire.CacheRecord{Kind: wire.CachePut, Obj: obj, Cycle: e.Cycle, Value: e.Value, Col: e.Col})
		} else if _, ok := flushed[obj]; ok {
			recs = append(recs, wire.CacheRecord{Kind: wire.CacheDelete, Obj: obj})
		}
	}
	return recs
}

// crashRun applies muts to a fresh store with the given failpoint budget
// (0 = none), flushing after each mutation count listed in flushes until
// a flush fails, and abandons the store without Close. It returns what a
// cold open recovers, how many flushes succeeded, and the bytes the
// segments held when the store was abandoned.
func crashRun(t *testing.T, muts []mutation, flushes []int, budget int64) (map[int]Entry, int, int64) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{WriteBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i, m := range muts {
		if err := apply(t, s, m); err != nil {
			t.Fatal(err)
		}
		if done < len(flushes) && flushes[done] == i+1 {
			if s.Flush() != nil {
				break // the crash
			}
			done++
		}
	}
	s.f.Close() // abandoned: no Close, no final flush
	var logged int64
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	for _, seg := range segs {
		if st, err := os.Stat(seg); err == nil {
			logged += st.Size()
		}
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	return re.Inventory(), done, logged
}

// TestCrashLosesOnlyUnflushedTail states the write-behind contract. A
// store abandoned between flushes recovers exactly the inventory of its
// last flush. A store torn inside a flush's batch — a WriteBudget cut at
// a random byte of it — recovers the last flush's inventory updated by
// the batch's records that fit the budget whole, in batch order.
func TestCrashLosesOnlyUnflushedTail(t *testing.T) {
	lostTail, torn := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		// 5 columns keep a record near 80 bytes, 60 near 520: a batch of
		// 16 or more records spills the buffer in the middle of its flush.
		for _, objects := range []int{5, 60} {
			muts := script(seed, 200, objects)
			rng := rand.New(rand.NewSource(seed))
			var flushes []int // mutation counts after which the schedule flushes
			for i := range muts {
				if rng.Float64() < 0.05 {
					flushes = append(flushes, i+1)
				}
			}
			// The model: each flush's records and their framed sizes.
			batches, sizes := make([][]wire.CacheRecord, len(flushes)), make([][]int64, len(flushes))
			last, total := 0, int64(0)
			for k, f := range flushes {
				batches[k] = flushBatch(replay(muts, last), muts[last:f])
				for _, rec := range batches[k] {
					sizes[k] = append(sizes[k], int64(4+wire.CacheRecordSize(rec)))
					total += sizes[k][len(sizes[k])-1]
				}
				last = f
			}

			got, done, logged := crashRun(t, muts, flushes, 0)
			if done != len(flushes) || logged != total {
				t.Fatalf("seed %d, %d objects: %d of %d flushes logged %d bytes, the batches hold %d", seed, objects, done, len(flushes), logged, total)
			}
			sameInventory(t, got, replay(muts, last))
			if !equalInventory(got, replay(muts, len(muts))) {
				lostTail++
			}

			// Tear one flush that logs two or more records, from a random
			// one on, at a random byte inside its batch.
			var written int64
			for k := range flushes {
				var batch int64
				for _, n := range sizes[k] {
					batch += n
				}
				if len(batches[k]) < 2 || k < rng.Intn(len(flushes)) {
					written += batch
					continue
				}
				cut := 1 + rng.Int63n(batch-1)
				want, whole := map[int]Entry{}, 0
				if k > 0 {
					want = replay(muts, flushes[k-1])
				}
				for used := sizes[k][0]; used <= cut; used += sizes[k][whole] {
					rec := batches[k][whole]
					if rec.Kind == wire.CacheDelete {
						delete(want, rec.Obj)
					} else {
						want[rec.Obj] = Entry{Value: rec.Value, Cycle: rec.Cycle, Col: rec.Col}
					}
					whole++
				}
				got, done, _ := crashRun(t, muts, flushes, written+cut)
				if done != k {
					t.Fatalf("seed %d, %d objects: the cut in flush %d failed flush %d", seed, objects, k, done)
				}
				if !equalInventory(got, want) {
					t.Fatalf("seed %d, %d objects, cut %d of %d batch bytes: recovered %+v, want the last flush's inventory plus the first %d of %d records: %+v",
						seed, objects, cut, batch, got, whole, len(batches[k]), want)
				}
				if whole > 0 {
					torn++
				}
				break
			}
		}
	}
	if lostTail == 0 || torn == 0 {
		t.Fatalf("degenerate schedule: %d abandoned runs lost an unflushed tail, %d torn runs kept part of their batch", lostTail, torn)
	}
}

// TestCloseReportsLostTail: Close performs the final flush, so a flush
// that fails surfaces instead of silently dropping the buffered tail.
func TestCloseReportsLostTail(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("tail"), 1, []cmatrix.Cycle{1}); err != nil {
		t.Fatal(err)
	}
	s.f.Close() // the segment file goes away underneath the store
	if err := s.Close(); err == nil {
		t.Fatal("Close lost a buffered record and reported no error")
	}
}

// TestStoreAppendAllocs pins the write-behind path: a mutation through
// Cache.Put (a miss, evicting at the cap, which hands the store the
// cache's own slices) or Store.Delete allocates nothing, nor does a
// steady-state Flush — the dirty list is reused — or a Cache.Expire
// that evicts and flushes; an exported Put allocates only the
// inventory's copies of value and column.
func TestStoreAppendAllocs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	value, col := make([]byte, 64), make([]cmatrix.Cycle, 64)
	for obj := 0; obj < 48; obj++ {
		s.Put(obj, value, 1, col)
	}
	s.Flush()
	obj := 0
	if allocs := testing.AllocsPerRun(200, func() {
		s.Put(obj%48, value, 1, col)
		obj++
	}); allocs > 2 {
		t.Fatalf("Put allocates %.1f times, want ≤ 2", allocs)
	}
	miss := cmatrix.Cycle(8)
	mc := newTestCache(48, &miss, s, func() { t.Error("store write failed") })
	snaps := make([]protocol.Snapshot, 64)
	for o := range snaps {
		snaps[o] = colSnap(o, col...)
	}
	for o := 0; o < 4*64; o++ {
		mc.Put(o%64, value, 1, snaps[o%64])
	}
	s.Flush()
	if allocs := testing.AllocsPerRun(200, func() {
		mc.Put(obj%64, value, 1, snaps[obj%64]) // a miss: 48 entries over 64 objects
		obj++
	}); allocs != 0 {
		t.Fatalf("a miss through Cache.Put allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 32; i++ {
			mc.Put(obj%64, value, 1, snaps[obj%64])
			obj++
		}
		s.Flush()
	}); allocs != 0 {
		t.Fatalf("32 misses and a Flush allocate %.1f times, want 0", allocs)
	}
	for obj := 0; obj < 400; obj++ {
		s.Put(obj, value, 1, col)
	}
	s.Flush()
	obj = 0
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 20; i++ {
			s.Delete(obj)
			obj++
		}
		s.Flush()
	}); allocs != 0 {
		t.Fatalf("20 deletes and their Flush allocate %.1f times", allocs)
	}

	// Entry i is cached at cycle i; at cycle 1001+k the currency bound
	// 1000 expires exactly entry k.
	bound := cmatrix.Cycle(1000)
	c := newTestCache(0, &bound, s, func() { t.Error("store write failed") })
	for obj := 1; obj <= 300; obj++ {
		c.Put(obj, value, cmatrix.Cycle(obj), colSnap(obj, col...))
	}
	k := cmatrix.Cycle(0)
	if allocs := testing.AllocsPerRun(200, func() {
		k++
		c.Expire(bound + 1 + k)
	}); allocs != 0 {
		t.Fatalf("Expire allocates %.1f times", allocs)
	}
	if c.Len() != 300-201 {
		t.Fatalf("Expire left %d entries, want %d", c.Len(), 300-201)
	}
}

// TestStorePutCopies: Put keeps its own copies, so a caller that
// reuses its value and column buffers leaves the inventory as it was.
func TestStorePutCopies(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	value, col := []byte("first"), []cmatrix.Cycle{1, 2, 3}
	if err := s.Put(4, value, 7, col); err != nil {
		t.Fatal(err)
	}
	copy(value, "XXXXX")
	col[0], col[2] = 99, 99
	want := map[int]Entry{4: {Value: []byte("first"), Cycle: 7, Col: []cmatrix.Cycle{1, 2, 3}}}
	sameInventory(t, s.Inventory(), want)
}

// TestOpenDropsOldCodecSegment: a segment of version 1 records (FNV-1a
// 64 trailer) fails the version check at its first record, so the store
// opens empty, truncates the file, and carries on from there.
func TestOpenDropsOldCodecSegment(t *testing.T) {
	dir := t.TempDir()
	v1, err := hex.DecodeString("4243513101000000000500000000000000090000000376616c000000030000000000000001000000000000000000000000000000081a24233f462da821")
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for i := 0; i < 3; i++ {
		seg = append(binary.BigEndian.AppendUint32(seg, uint32(len(v1))), v1...)
	}
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("a version 1 segment recovered %d entries, want 0", s.Len())
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 0 {
		t.Fatalf("version 1 segment not truncated: %v, %v", st, err)
	}
	if err := s.Put(5, []byte("v2"), 11, []cmatrix.Cycle{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameInventory(t, re.Inventory(), map[int]Entry{5: {Value: []byte("v2"), Cycle: 11, Col: []cmatrix.Cycle{1, 0}}})
}

// TestRecoverSegmentLongestPrefix drives the pure recovery function
// over every truncation of a record stream.
func TestRecoverSegmentLongestPrefix(t *testing.T) {
	var data []byte
	var bounds []int // cumulative framed record ends
	for i := 0; i < 8; i++ {
		payload := wire.EncodeCacheRecord(wire.CacheRecord{
			Kind: wire.CachePut, Obj: i, Cycle: cmatrix.Cycle(i + 1),
			Value: bytes.Repeat([]byte{byte(i)}, i),
			Col:   []cmatrix.Cycle{1, 2, cmatrix.Cycle(i)},
		})
		data = binary.BigEndian.AppendUint32(data, uint32(len(payload)))
		data = append(data, payload...)
		bounds = append(bounds, len(data))
	}
	for cut := 0; cut <= len(data); cut++ {
		recs, valid := RecoverSegment(data[:cut])
		wantRecs := 0
		for _, b := range bounds {
			if b <= cut {
				wantRecs++
			}
		}
		if len(recs) != wantRecs {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantRecs)
		}
		wantValid := 0
		if wantRecs > 0 {
			wantValid = bounds[wantRecs-1]
		}
		if valid != wantValid {
			t.Fatalf("cut %d: valid prefix %d, want %d", cut, valid, wantValid)
		}
	}
	// A flipped byte inside a record stops recovery at that record.
	bad := append([]byte(nil), data...)
	bad[bounds[2]+20] ^= 0xff
	recs, valid := RecoverSegment(bad)
	if len(recs) != 3 || valid != bounds[2] {
		t.Fatalf("corruption in record 3: recovered %d records to byte %d, want 3 to %d", len(recs), valid, bounds[2])
	}
}

// TestSegmentRotationAndCompaction: a batch writes nothing until its
// flush, which rotates the active segment as it drains; compaction
// folds every segment into one, which later appends extend.
func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	muts := script(3, 60, 6)
	for _, m := range muts {
		if err := apply(t, s, m); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.segments(); n != 1 || s.size != 0 {
		t.Fatalf("before the flush: %d segments, %d bytes; want 1 empty segment", n, s.size)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.segments(); n < 2 {
		t.Fatalf("expected the flush to rotate into multiple segments, got %d", n)
	}
	want := replay(muts, len(muts))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.segments(); n != 1 {
		t.Fatalf("compaction left %d segments, want 1", n)
	}
	sameInventory(t, s.Inventory(), want)
	// Appends after compaction land in the compacted segment.
	if err := s.Put(42, []byte("after"), 99, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want[42] = Entry{Value: []byte("after"), Cycle: 99}
	sameInventory(t, re.Inventory(), want)
}

// TestCompactLeavesNewestSegmentActive: after Compact the store appends
// to the compacted segment through the descriptor it wrote it with —
// the highest-numbered segment, never a superseded one, which Open would
// replay first and so undo later puts and deletes — and what is mutated
// and flushed afterwards, across rotations and a second compaction,
// survives a cold reopen.
func TestCompactLeavesNewestSegmentActive(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{MaxSegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 3; round++ {
		for i, m := range script(4+round, 80, 12) {
			if err := apply(t, s, m); err != nil {
				t.Fatal(err)
			}
			if i%10 == 9 {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if round == 2 {
			break
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) != 1 || segs[0] != s.seg {
			t.Fatalf("round %d: segments %v (%v) after Compact, active segment %d", round, segs, err, s.seg)
		}
		active, err1 := s.f.Stat()
		newest, err2 := os.Stat(filepath.Join(dir, segName(segs[0])))
		if err1 != nil || err2 != nil || !os.SameFile(active, newest) {
			t.Fatalf("round %d: the active descriptor is not the compacted segment (%v, %v)", round, err1, err2)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameInventory(t, re.Inventory(), s.Inventory())
	s.Close()
}

// TestOpenIgnoresCompactionTemporaries pins the crash-mid-compaction
// story: a leftover .tmp segment (the rename never happened) is dead
// and must not shadow or corrupt the live segments.
func TestOpenIgnoresCompactionTemporaries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("live"), 5, []cmatrix.Cycle{1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	tmp := filepath.Join(dir, segName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e, ok := re.Get(1); !ok || !bytes.Equal(e.Value, []byte("live")) {
		t.Fatal("live entry lost in the presence of a compaction temporary")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale compaction temporary not removed")
	}
}

// TestGarbageSegmentTail pins recovery from arbitrary trailing garbage,
// not just clean truncation.
func TestGarbageSegmentTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(7, []byte("keep"), 3, []cmatrix.Cycle{9}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// An absurd length prefix followed by noise.
	f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e, ok := re.Get(7); !ok || !bytes.Equal(e.Value, []byte("keep")) {
		t.Fatal("entry before garbage tail lost")
	}
	if err := re.Put(8, []byte("new"), 4, nil); err != nil {
		t.Fatal(err)
	}
}
