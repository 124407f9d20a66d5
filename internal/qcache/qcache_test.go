package qcache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
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
// mutation is flushed, Flush being the durability point.
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
				break // the crash
			}
			if err := s.Flush(); err != nil {
				t.Fatalf("budget %d: flush: %v", budget, err)
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

// TestCrashLosesOnlyUnflushedTail states the buffered contract: a store
// abandoned without Close recovers the inventory of a prefix of what was
// put that reaches at least the last Flush — exactly the last Flush
// while the buffer never filled after it.
func TestCrashLosesOnlyUnflushedTail(t *testing.T) {
	exact, overflowed := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		// 5 columns keep a record near 80 bytes, 60 near 520: a gap of 16
		// or more records between flushes overflows the buffer.
		for _, objects := range []int{5, 60} {
			muts := script(seed, 200, objects)
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			lastFlush, flushedSize := 0, int64(0)
			for i, m := range muts {
				if err := apply(t, s, m); err != nil {
					t.Fatal(err)
				}
				if rng.Float64() < 0.05 {
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					lastFlush, flushedSize = i+1, s.size
				}
			}
			s.f.Close() // abandoned: no Close, no final flush
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := re.Inventory()
			re.Close()
			if s.size-flushedSize <= bufBytes {
				exact++
				sameInventory(t, got, replay(muts, lastFlush))
				continue
			}
			overflowed++
			k := lastFlush
			for k <= len(muts) && !equalInventory(got, replay(muts, k)) {
				k++
			}
			if k > len(muts) {
				t.Fatalf("seed %d, %d objects: recovered inventory is no prefix from the last flush (%d) on", seed, objects, lastFlush)
			}
		}
	}
	if exact == 0 || overflowed == 0 {
		t.Fatalf("degenerate schedule: %d runs without overflow, %d with", exact, overflowed)
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

// TestStoreAppendAllocs pins the steady-state write path: an exported
// Put allocates only the inventory's copies of value and column; a miss
// through Cache.Put, which hands the store the cache's own slices, a
// Delete, a Flush and a Cache.Expire that evicts and flushes allocate
// nothing.
func TestStoreAppendAllocs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	value, col := make([]byte, 64), make([]cmatrix.Cycle, 64)
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
	if allocs := testing.AllocsPerRun(200, func() {
		mc.Put(obj%64, value, 1, snaps[obj%64]) // a miss: 48 entries over 64 objects
		obj++
	}); allocs != 0 {
		t.Fatalf("a miss through Cache.Put allocates %.1f times, want 0", allocs)
	}
	for obj := 0; obj < 400; obj++ {
		s.Put(obj, value, 1, col)
	}
	obj = 0
	if allocs := testing.AllocsPerRun(200, func() {
		s.Delete(obj)
		s.Flush()
		obj++
	}); allocs != 0 {
		t.Fatalf("Delete + Flush allocates %.1f times", allocs)
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
	if n, _ := s.Segments(); n < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", n)
	}
	want := replay(muts, len(muts))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Segments(); n != 1 {
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
