// Package qcache is the client's persistent quasi-cache tier (DESIGN.md
// §13): a crash-safe on-disk store of cached broadcast objects — value,
// caching cycle, and the cached control column that keeps validation
// air-only (Section 3.3) — so a client that restarts, even after a hard
// kill, revalidates its inventory against the next control snapshot it
// hears instead of re-reading the database off the air.
//
// The store is an append-only log of length-framed, CRC-32C-checksummed
// BCQ1 records in numbered segment files, written behind: a mutation
// only updates the in-memory inventory and marks its object dirty, and
// Flush logs each dirty object's final state once, in first-mutation
// order — once per cycle (from Cache.Expire), and in Sync, Close and
// Compact. A crash loses at most what was mutated since the last flush:
// recovery replays segments in order, later records superseding earlier
// ones, and truncates each at its first torn or corrupt record, so the
// recovered inventory is the last flush's, updated by a prefix of the
// next batch. Compaction writes the live inventory into a fresh segment
// via tmp + fsync + rename (atomic on POSIX), then removes the
// superseded segments; a crash at any point leaves either the old or the
// new segment set, never a mix.
package qcache

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/wire"
)

// ErrClosed rejects operations on a closed store.
var ErrClosed = errors.New("qcache: store closed")

// errFailpoint reports a simulated crash from the failpoint writer.
var errFailpoint = errors.New("qcache: failpoint write budget exhausted")

// maxRecordBytes bounds a single record's framed length; anything
// larger in a segment is treated as corruption, not an allocation.
const maxRecordBytes = 16 << 20

// bufBytes is the capacity of the buffer records wait in for a flush.
const bufBytes = 8 << 10

// segPrefix/segSuffix name segment files: seg-000042.bcq.
const (
	segPrefix = "seg-"
	segSuffix = ".bcq"
)

// Entry is one live cached object as recovered from (or written to)
// the store.
type Entry struct {
	Value []byte
	Cycle cmatrix.Cycle
	Col   []cmatrix.Cycle // cached control column, Col[i] = C(i, obj)
}

// Options tune a store.
type Options struct {
	// MaxSegmentBytes rotates the active segment when it grows past
	// this size (0 = default 4 MiB).
	MaxSegmentBytes int64
	// WriteBudget, when positive, is a failpoint: the store may write
	// at most this many bytes in total, byte-exactly — the record that
	// crosses the budget is cut at the boundary, the flush logging it
	// fails, and every later record is refused. It simulates a kill -9
	// at an arbitrary byte offset for the crash-recovery test matrix.
	WriteBudget int64
}

// Store is a persistent cache inventory. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	f      *os.File
	seg    int    // active segment index
	size   int64  // bytes appended to the active segment, buffered included
	buf    []byte // framed records not yet written; cap bufBytes unless a larger record grew it
	inv    map[int]*slot
	dirty  []*slot // slots mutated since the last flush, in first-mutation order
	budget int64   // remaining failpoint bytes
	closed bool
}

// slot is one object's place in the inventory. It outlives its entry
// until the next Compact, so an object that returns allocates nothing.
type slot struct {
	Entry
	obj    int
	live   bool // the inventory holds Entry for obj
	logged bool // the log, replayed, holds a put for obj
	dirty  bool // on Store.dirty
}

// Open recovers (or creates) a store in dir with default options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions recovers (or creates) a store in dir.
func OpenOptions(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("qcache: %w", err)
	}
	s := &Store{dir: dir, opts: opts, buf: make([]byte, 0, bufBytes), inv: map[int]*slot{}, budget: math.MaxInt64}
	if opts.WriteBudget > 0 {
		s.budget = opts.WriteBudget
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Leftover compaction temporaries are from a crash mid-compaction:
	// the rename never happened, so they are dead.
	tmps, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix+".tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segName(seg)))
		if err != nil {
			return nil, fmt.Errorf("qcache: %w", err)
		}
		recs, valid := RecoverSegment(data)
		for _, rec := range recs {
			s.apply(rec)
		}
		if valid < len(data) {
			// Torn tail: truncate it away so the next append starts at a
			// record boundary.
			if err := os.Truncate(filepath.Join(dir, segName(seg)), int64(valid)); err != nil {
				return nil, fmt.Errorf("qcache: truncating torn tail: %w", err)
			}
		}
		s.seg, s.size = seg, int64(valid)
	}
	if len(segs) == 0 {
		s.seg = 1
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(s.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("qcache: %w", err)
	}
	s.f = f
	return s, nil
}

// RecoverSegment decodes the longest valid prefix of one segment's
// bytes: the records it yields, and the byte length of the prefix they
// occupy. Everything after the first torn or corrupt record is
// discarded — a record is either durably whole or it never happened.
// Pure function; the crash-matrix property tests drive it directly.
func RecoverSegment(data []byte) (recs []wire.CacheRecord, valid int) {
	off := 0
	for {
		if off+4 > len(data) {
			return recs, off
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		if n <= 0 || n > maxRecordBytes || off+4+n > len(data) {
			return recs, off
		}
		rec, err := wire.DecodeCacheRecord(data[off+4 : off+4+n])
		if err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += 4 + n
	}
}

// apply folds one recovered record into the inventory.
func (s *Store) apply(rec wire.CacheRecord) {
	switch rec.Kind {
	case wire.CachePut:
		s.inv[rec.Obj] = &slot{Entry: Entry{Value: rec.Value, Cycle: rec.Cycle, Col: rec.Col}, obj: rec.Obj, live: true, logged: true}
	case wire.CacheDelete:
		delete(s.inv, rec.Obj)
	}
}

// Put records obj as cached: value, caching cycle, and the control
// column retained for validation. The store keeps copies of both.
func (s *Store) Put(obj int, value []byte, cycle cmatrix.Cycle, col []cmatrix.Cycle) error {
	return s.set(obj, Entry{Value: append([]byte(nil), value...), Cycle: cycle, Col: append([]cmatrix.Cycle(nil), col...)}, true)
}

// Delete records obj as evicted.
func (s *Store) Delete(obj int) error { return s.set(obj, Entry{}, false) }

// set makes e obj's entry, keeping e's slices themselves, or drops
// obj's entry if !live, and marks obj for the next flush. It encodes and
// writes nothing. A Cache hands over its block's slices and replaces or
// drops the entry before it lets go of the block, so the inventory never
// holds a block that may be refilled.
func (s *Store) set(obj int, e Entry, live bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	sl := s.inv[obj]
	if sl == nil && live {
		sl = &slot{obj: obj}
		s.inv[obj] = sl
	}
	if sl == nil || !sl.live && !live {
		return nil
	}
	sl.Entry, sl.live = e, live
	if !sl.dirty {
		sl.dirty, s.dirty = true, append(s.dirty, sl)
	}
	return nil
}

// drain logs the final state of every object mutated since the last
// drain, in first-mutation order — a put if it is live, a delete if it
// is gone and the log holds a put for it, nothing if it came and went —
// and writes the buffer out. It reports the first error and how many
// records it refused: the one it failed on and each one after it, not
// retried, or 1 if only the last write failed.
func (s *Store) drain() (lost int, err error) {
	for _, sl := range s.dirty {
		sl.dirty = false
		if !sl.live && !sl.logged {
			continue // came and went
		}
		rec := wire.CacheRecord{Kind: wire.CacheDelete, Obj: sl.obj}
		if sl.live {
			rec = wire.CacheRecord{Kind: wire.CachePut, Obj: sl.obj, Cycle: sl.Cycle, Value: sl.Value, Col: sl.Col}
		}
		if err == nil {
			err = s.append(rec)
		}
		if err != nil {
			lost++
			continue
		}
		sl.logged = sl.live
	}
	s.dirty = s.dirty[:0]
	if err == nil {
		if err = s.write(s.f); err != nil {
			lost++
		}
	}
	return lost, err
}

// append buffers one record for the active segment, rotating first
// when the segment is full.
func (s *Store) append(rec wire.CacheRecord) error {
	if s.size >= s.opts.MaxSegmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	n, err := s.add(s.f, rec)
	s.size += int64(n)
	return err
}

// add frames rec into the buffer bound for f — a 4-byte big-endian
// payload length, then the BCQ1 payload — writing the buffer out first
// if it would not fit, and reports the bytes buffered. The failpoint
// budget is charged here: the record that crosses it is cut at the
// boundary, the buffer written, and add fails — a crash mid-record.
func (s *Store) add(f *os.File, rec wire.CacheRecord) (int, error) {
	n := 4 + wire.CacheRecordSize(rec)
	if len(s.buf)+n > cap(s.buf) {
		if err := s.write(f); err != nil {
			return 0, err
		}
	}
	start := len(s.buf)
	s.buf = wire.AppendCacheRecord(binary.BigEndian.AppendUint32(s.buf, uint32(n-4)), rec)
	if s.budget < int64(n) {
		n, s.budget, s.buf = int(s.budget), 0, s.buf[:start+int(s.budget)]
		return n, cmp.Or(s.write(f), errFailpoint)
	}
	s.budget -= int64(n)
	return n, nil
}

// write empties the buffer into f in one write — the only place bytes
// reach a file.
func (s *Store) write(f *os.File) error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := f.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// Flush logs what was mutated since the last flush to the active
// segment: the durability point, reached once per cycle by Cache.Expire.
func (s *Store) Flush() error { _, err := s.flush(); return err }

// flush is Flush reporting, too, how many records it failed to log.
func (s *Store) flush() (lost int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.drain()
}

// rotate opens the next segment for appending.
func (s *Store) rotate() error {
	if err := s.write(s.f); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("qcache: %w", err)
	}
	s.seg++
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("qcache: %w", err)
	}
	s.f, s.size = f, 0
	return nil
}

// Get returns a copy of the live entry for obj. The inventory's own
// slices may be a Cache's blocks, which it refills once the entry is
// gone, so what Get hands out is the caller's.
func (s *Store) Get(obj int) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sl := s.inv[obj]; sl != nil && sl.live {
		return sl.clone(), true
	}
	return Entry{}, false
}

// Inventory returns a copy of the live entries keyed by object id, as
// Get copies one.
func (s *Store) Inventory() map[int]Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]Entry, len(s.inv))
	for obj, sl := range s.inv {
		if sl.live {
			out[obj] = sl.clone()
		}
	}
	return out
}

// clone copies an entry's slices.
func (e Entry) clone() Entry {
	return Entry{Value: append([]byte(nil), e.Value...), Cycle: e.Cycle, Col: append([]cmatrix.Cycle(nil), e.Col...)}
}

// Len reports the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sl := range s.inv {
		if sl.live {
			n++
		}
	}
	return n
}

// segments reports the number of segment files.
func (s *Store) segments() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := listSegments(s.dir)
	return len(segs), err
}

// Compact rewrites the live inventory into one fresh segment and
// removes the superseded ones. The new segment becomes visible only
// via rename, so a crash anywhere leaves a decodable store.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Flush first: a failed compaction leaves the old segments complete.
	if _, err := s.drain(); err != nil {
		return err
	}
	next := s.seg + 1
	path := filepath.Join(s.dir, segName(next))
	tmp, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("qcache: %w", err)
	}
	objs := make([]int, 0, len(s.inv))
	for obj, sl := range s.inv {
		if sl.live {
			objs = append(objs, obj)
		}
	}
	sort.Ints(objs)
	var size int64
	for i := 0; err == nil && i < len(objs); i++ {
		e, n := s.inv[objs[i]], 0
		n, err = s.add(tmp, wire.CacheRecord{Kind: wire.CachePut, Obj: objs[i], Cycle: e.Cycle, Value: e.Value, Col: e.Col})
		size += int64(n)
	}
	if err = cmp.Or(err, s.write(tmp), tmp.Sync()); err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(path + ".tmp")
		return err
	}
	// The compaction file's own descriptor is the active segment from
	// here on: nothing reopens after the rename, so no failure can leave
	// appends going to a superseded segment, which Open replays first.
	// Removing those is best-effort.
	s.f.Close()
	s.f, s.seg, s.size = tmp, next, size
	for obj, sl := range s.inv {
		if sl.logged = sl.live; !sl.live {
			delete(s.inv, obj)
		}
	}
	old, _ := listSegments(s.dir)
	for _, seg := range old {
		if seg < next {
			os.Remove(filepath.Join(s.dir, segName(seg)))
		}
	}
	return nil
}

// Sync flushes the store and syncs the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	_, err := s.drain()
	return cmp.Or(err, s.f.Sync())
}

// Close flushes, syncs and closes the store, reporting the first error:
// a failed flush lost (part of) the last batch. The store stays
// recoverable — Close is a convenience, not a durability requirement.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	_, err := s.drain()
	return cmp.Or(err, s.f.Sync(), s.f.Close())
}

func segName(seg int) string {
	return fmt.Sprintf("%s%06d%s", segPrefix, seg, segSuffix)
}

// listSegments returns segment indices in ascending order.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("qcache: %w", err)
	}
	var segs []int
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}
