package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"broadcastcc/internal/cmatrix"
)

func TestCacheRecordRoundTrip(t *testing.T) {
	recs := []CacheRecord{
		{Kind: CachePut, Obj: 3, Cycle: 17, Value: []byte("hello"), Col: []cmatrix.Cycle{0, 4, 16, 2}},
		{Kind: CachePut, Obj: 0, Cycle: 1, Value: nil, Col: []cmatrix.Cycle{0}},
		{Kind: CacheDelete, Obj: 9, Cycle: 40},
	}
	for i, rec := range recs {
		enc := EncodeCacheRecord(rec)
		got, err := DecodeCacheRecord(enc)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got.Kind != rec.Kind || got.Obj != rec.Obj || got.Cycle != rec.Cycle {
			t.Fatalf("record %d: got %+v want %+v", i, got, rec)
		}
		if !bytes.Equal(got.Value, rec.Value) {
			t.Fatalf("record %d: value %q want %q", i, got.Value, rec.Value)
		}
		if !reflect.DeepEqual(got.Col, rec.Col) {
			t.Fatalf("record %d: column %v want %v", i, got.Col, rec.Col)
		}
	}
}

func TestCacheRecordRejectsCorruption(t *testing.T) {
	good := EncodeCacheRecord(CacheRecord{
		Kind: CachePut, Obj: 2, Cycle: 9,
		Value: []byte("v"), Col: []cmatrix.Cycle{1, 2, 3},
	})
	// Every truncation of a record must be rejected — this is what makes
	// torn-tail recovery sound.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeCacheRecord(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Every single-bit flip must be rejected (checksum coverage).
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := DecodeCacheRecord(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	// Trailing bytes must be rejected.
	if _, err := DecodeCacheRecord(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A future codec version must be rejected, not misparsed.
	future := append([]byte(nil), good...)
	future[4] = CacheRecordVersion + 1
	if _, err := DecodeCacheRecord(future); err == nil {
		t.Fatal("future version accepted")
	}
	// A version 1 record — FNV-1a 64 trailer — is refused by its version
	// byte, so a store written by it recovers empty.
	v1, _ := hex.DecodeString("4243513101000000000500000000000000090000000376616c000000030000000000000001000000000000000000000000000000081a24233f462da821")
	if _, err := DecodeCacheRecord(v1); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version 1 record: err = %v, want the version error", err)
	}
	// So is a version 2 record, whose column entries are 8 bytes wide.
	v2, _ := hex.DecodeString("4243513102000000000500000000000000090000000376616c00000003000000000000000100000000000000000000000000000008321b809a")
	if _, err := DecodeCacheRecord(v2); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version 2 record: err = %v, want the version error", err)
	}
	// A column wider than its entries need is refused: a decoded record
	// re-encodes to its own bytes.
	wide := EncodeCacheRecord(CacheRecord{Kind: CachePut, Obj: 1, Cycle: 300, Col: []cmatrix.Cycle{0, 299}})
	narrow := EncodeCacheRecord(CacheRecord{Kind: CachePut, Obj: 1, Cycle: 300, Col: []cmatrix.Cycle{100, 299}})
	if wide[26] != 2 || narrow[26] != 1 {
		t.Fatalf("column widths %d and %d, want 2 and 1", wide[26], narrow[26])
	}
	padded := append(append([]byte(nil), narrow[:26]...), 2, 0, 200, 0, 1)
	padded = binary.BigEndian.AppendUint32(padded, crc32.Checksum(padded, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := DecodeCacheRecord(padded); err == nil || !strings.Contains(err.Error(), "width 2") {
		t.Fatalf("a width-1 column padded to width 2: err = %v, want the width error", err)
	}
}

// TestCacheRecordColumnWidths: a column is written at the narrowest of
// 1, 2, 4 and 8 bytes that holds cycle − C(i, obj) for every entry, and
// decodes to exactly the cycles it was encoded from — at width 8 also
// entries above the caching cycle or below zero, modulo 2⁶⁴.
func TestCacheRecordColumnWidths(t *testing.T) {
	const big = cmatrix.Cycle(1) << 40
	for _, tc := range []struct {
		cycle cmatrix.Cycle
		col   []cmatrix.Cycle
		width int
	}{
		{9, nil, 1},
		{9, []cmatrix.Cycle{9, 0, 8}, 1},
		{255, []cmatrix.Cycle{0, 255}, 1},
		{256, []cmatrix.Cycle{0, 255}, 2},
		{70000, []cmatrix.Cycle{4465, 70000}, 2},
		{70000, []cmatrix.Cycle{4464, 70000}, 4},
		{big, []cmatrix.Cycle{big - math.MaxUint32, big - 1}, 4},
		{big, []cmatrix.Cycle{0, big - 7}, 8},
		{5, []cmatrix.Cycle{6, 0}, 8},
		{5, []cmatrix.Cycle{-3, math.MaxInt64, math.MinInt64}, 8},
		{math.MaxInt64, []cmatrix.Cycle{math.MinInt64, 0}, 8},
	} {
		rec := CacheRecord{Kind: CachePut, Obj: 2, Cycle: tc.cycle, Value: []byte("v"), Col: tc.col}
		enc := EncodeCacheRecord(rec)
		if w := int(enc[27]); w != tc.width {
			t.Fatalf("cycle %d column %v: width %d, want %d", tc.cycle, tc.col, w, tc.width)
		}
		if len(enc) != CacheRecordSize(rec) || len(enc) != cacheRecordMinBytes+1+tc.width*len(tc.col) {
			t.Fatalf("cycle %d column %v: %d bytes, CacheRecordSize %d", tc.cycle, tc.col, len(enc), CacheRecordSize(rec))
		}
		got, err := DecodeCacheRecord(enc)
		if err != nil || got.Cycle != tc.cycle || !bytes.Equal(got.Value, rec.Value) || !slices.Equal(got.Col, tc.col) {
			t.Fatalf("cycle %d column %v: decoded %+v, %v", tc.cycle, tc.col, got, err)
		}
	}
}

// BenchmarkCacheRecord is one read-cached store miss on the codec: the
// record of a 64-byte value and a 64-entry column appended to a reused
// buffer, then decoded.
func BenchmarkCacheRecord(b *testing.B) {
	rec := CacheRecord{Kind: CachePut, Obj: 7, Cycle: 1000, Value: make([]byte, 64), Col: make([]cmatrix.Cycle, 64)}
	buf := make([]byte, 0, CacheRecordSize(rec))
	b.SetBytes(int64(CacheRecordSize(rec)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendCacheRecord(buf[:0], rec)
		if _, err := DecodeCacheRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// columnFrom builds a caching cycle and a column from fuzz input: the
// first byte picks the widest entry (1, 2, 4 or 8 bytes), the next eight
// the cycle, and each later 8-byte chunk, cut to that width, one entry's
// distance below the cycle.
func columnFrom(data []byte) (cmatrix.Cycle, []cmatrix.Cycle) {
	if len(data) < 9 {
		return 1, nil
	}
	bits := 8 << (data[0] % 4)
	cycle := cmatrix.Cycle(binary.BigEndian.Uint64(data[1:9]))
	var col []cmatrix.Cycle
	for rest := data[9:]; len(rest) >= 8; rest = rest[8:] {
		d := binary.BigEndian.Uint64(rest)
		if bits < 64 {
			d &= 1<<bits - 1
		}
		col = append(col, cycle-cmatrix.Cycle(d))
	}
	return cycle, col
}

func FuzzCacheRecordCodec(f *testing.F) {
	f.Add(EncodeCacheRecord(CacheRecord{Kind: CachePut, Obj: 1, Cycle: 5, Value: []byte("x"), Col: []cmatrix.Cycle{1, 2}}))
	f.Add(EncodeCacheRecord(CacheRecord{Kind: CacheDelete, Obj: 0, Cycle: 2}))
	f.Add([]byte{})
	f.Add([]byte("BCQ1 garbage"))
	for _, width := range []int{1, 2, 4, 8} {
		cycle := cmatrix.Cycle(1) << (8*width - 1)
		f.Add(EncodeCacheRecord(CacheRecord{Kind: CachePut, Obj: width, Cycle: cycle, Value: []byte("w"), Col: []cmatrix.Cycle{0, cycle / 3, cycle}}))
		seed := append([]byte{byte(width / 2)}, binary.BigEndian.AppendUint64(nil, uint64(cycle))...)
		f.Add(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(seed, 1<<(8*width-1)), 3))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any column, at whichever width it needs, comes back exactly.
		cycle, col := columnFrom(data)
		built := CacheRecord{Kind: CachePut, Obj: len(col), Cycle: cycle, Value: data[:min(len(data), 3)], Col: col}
		enc := EncodeCacheRecord(built)
		if len(enc) != CacheRecordSize(built) {
			t.Fatalf("encoded %d bytes, CacheRecordSize %d", len(enc), CacheRecordSize(built))
		}
		back, err := DecodeCacheRecord(enc)
		if err != nil || back.Cycle != cycle || !bytes.Equal(back.Value, built.Value) || !slices.Equal(back.Col, col) {
			t.Fatalf("cycle %d column %v at width %d: decoded %+v, %v", cycle, col, enc[26+len(built.Value)], back, err)
		}

		rec, err := DecodeCacheRecord(data)
		if err != nil {
			return
		}
		// The trailer is the CRC-32C of everything before it.
		body, trailer := data[:len(data)-4], data[len(data)-4:]
		if want := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); binary.BigEndian.Uint32(trailer) != want {
			t.Fatalf("accepted record's trailer %x, CRC-32C %#08x", trailer, want)
		}
		re := EncodeCacheRecord(rec)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted record re-encodes to %x, not its own bytes", re)
		}
		// Appending after a prefix is the prefix followed by the encoding.
		prefix := data[:len(data)/3]
		want := append(append([]byte(nil), prefix...), re...)
		if got := AppendCacheRecord(append([]byte(nil), prefix...), rec); !bytes.Equal(got, want) {
			t.Fatal("AppendCacheRecord(prefix, rec) != prefix ‖ EncodeCacheRecord(rec)")
		}
	})
}
