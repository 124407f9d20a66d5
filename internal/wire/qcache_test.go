package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"reflect"
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

func FuzzCacheRecordCodec(f *testing.F) {
	f.Add(EncodeCacheRecord(CacheRecord{Kind: CachePut, Obj: 1, Cycle: 5, Value: []byte("x"), Col: []cmatrix.Cycle{1, 2}}))
	f.Add(EncodeCacheRecord(CacheRecord{Kind: CacheDelete, Obj: 0, Cycle: 2}))
	f.Add([]byte{})
	f.Add([]byte("BCQ1 garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
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
		again, err := DecodeCacheRecord(re)
		if err != nil {
			t.Fatalf("accepted record failed round trip: %v", err)
		}
		if again.Kind != rec.Kind || again.Obj != rec.Obj || again.Cycle != rec.Cycle ||
			!bytes.Equal(again.Value, rec.Value) || len(again.Col) != len(rec.Col) {
			t.Fatal("cache record decode/encode/decode unstable")
		}
		// Appending after a prefix is the prefix followed by the encoding.
		prefix := data[:len(data)/3]
		want := append(append([]byte(nil), prefix...), re...)
		if got := AppendCacheRecord(append([]byte(nil), prefix...), rec); !bytes.Equal(got, want) {
			t.Fatal("AppendCacheRecord(prefix, rec) != prefix ‖ EncodeCacheRecord(rec)")
		}
	})
}
