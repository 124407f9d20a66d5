package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
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

func TestSubsetSubscribeRoundTrip(t *testing.T) {
	cases := [][]int{nil, {0}, {5, 1, 3, 1, 5}, {0, 1, 2, 63}}
	for _, objs := range cases {
		enc := EncodeSubsetSubscribe(objs)
		got, err := DecodeSubsetSubscribe(enc)
		if err != nil {
			t.Fatalf("subset %v: decode: %v", objs, err)
		}
		want := NormalizeSubset(objs)
		if len(got) != len(want) {
			t.Fatalf("subset %v: got %v want %v", objs, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("subset %v: got %v want %v", objs, got, want)
			}
		}
	}
	if _, err := DecodeSubsetSubscribe([]byte("BCQ2xx")); err == nil {
		t.Fatal("short frame accepted")
	}
	// Out-of-order object lists are not canonical.
	raw := EncodeSubsetSubscribe([]int{1, 2})
	raw[11], raw[15] = raw[15], raw[11] // swap the low bytes of the two ids
	if _, err := DecodeSubsetSubscribe(raw); err == nil {
		t.Fatal("descending subset accepted")
	}
}

func subsetFixture(t testing.TB) (*bcast.CycleBroadcast, []int) {
	layout := bcast.LayoutFor(protocol.FMatrix, 4, 16, 8, 0)
	m := cmatrix.NewMatrix(4)
	m.Apply([]int{0}, []int{1}, 3)
	m.Apply([]int{1}, []int{2, 3}, 5)
	cb := &bcast.CycleBroadcast{
		Number: 7, Layout: layout,
		Values: [][]byte{[]byte("a"), []byte("bb"), nil, []byte("d")},
		Matrix: m,
	}
	return cb, []int{1, 3}
}

func TestSubsetCycleRoundTrip(t *testing.T) {
	cb, objs := subsetFixture(t)
	sc, err := SubsetOf(cb, objs)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeSubsetCycle(sc)
	if err != nil {
		t.Fatal(err)
	}
	if KindOf(enc) != KindSubset {
		t.Fatal("encoded frame not recognized as BCQ3")
	}
	got, err := DecodeSubsetCycle(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Number != sc.Number || got.Objects != sc.Objects || !reflect.DeepEqual(got.Objs, sc.Objs) {
		t.Fatalf("shape mismatch: got %+v want %+v", got, sc)
	}
	for k, o := range got.Objs {
		if !reflect.DeepEqual(got.Columns[k], sc.Columns[k]) {
			t.Fatalf("object %d column %v want %v", o, got.Columns[k], sc.Columns[k])
		}
		if !bytes.Equal(got.Values[k], sc.Values[k]) {
			t.Fatalf("object %d value %q want %q", o, got.Values[k], sc.Values[k])
		}
	}
}

// TestSubsetBroadcastView pins the restricted client view: subscribed
// columns are exact, unsubscribed columns are poisoned to the cycle
// number (conservative: any cross-validation against them fails), and
// unsubscribed value slots are nil.
func TestSubsetBroadcastView(t *testing.T) {
	cb, objs := subsetFixture(t)
	sc, err := SubsetOf(cb, objs)
	if err != nil {
		t.Fatal(err)
	}
	view, err := sc.Broadcast()
	if err != nil {
		t.Fatal(err)
	}
	if view.Number != cb.Number {
		t.Fatalf("view cycle %d want %d", view.Number, cb.Number)
	}
	for _, o := range objs {
		for i := 0; i < 4; i++ {
			if view.Matrix.At(i, o) != cb.Matrix.At(i, o) {
				t.Fatalf("subscribed column %d row %d: %d want %d", o, i, view.Matrix.At(i, o), cb.Matrix.At(i, o))
			}
		}
		if view.Values[o] == nil {
			t.Fatalf("subscribed object %d has no value", o)
		}
	}
	for _, o := range []int{0, 2} {
		if view.Values[o] != nil {
			t.Fatalf("unsubscribed object %d carries a value", o)
		}
		for i := 0; i < 4; i++ {
			if view.Matrix.At(i, o) != cb.Number {
				t.Fatalf("unsubscribed column %d row %d not poisoned: %d", o, i, view.Matrix.At(i, o))
			}
		}
	}
	// The poisoned column makes the read-condition fail for any pair
	// involving an unsubscribed object.
	v := &protocol.SnapshotValidator{}
	if !v.TryRead(view.Column(1), 1, view.Number) {
		t.Fatal("subscribed read rejected")
	}
	if v.TryRead(view.Column(0), 0, view.Number) {
		t.Fatal("unsubscribed read accepted against a subscribed one")
	}
}

// TestSubsetBroadcastAllocs: a BCQ3 frame of count objects costs its
// tuner O(count·n), whatever n it claims. A 286-byte frame listing one
// object of n = 2048 made Broadcast clone the full n × n matrix, 32 MiB;
// now the matrix adopts the decoded column and one shared poison column.
func TestSubsetBroadcastAllocs(t *testing.T) {
	const n, count, number = 2048, 1, 5
	col := make([]cmatrix.Cycle, n)
	for i := range col {
		col[i] = number - 1 // what 1-bit timestamps carry exactly
	}
	frame, err := EncodeSubsetCycle(&SubsetCycle{Number: number, Objects: n, ObjBytes: 1, TsBits: 1,
		Objs: []int{7}, Values: [][]byte{{1}}, Columns: [][]cmatrix.Cycle{col}})
	if err != nil {
		t.Fatal(err)
	}
	var cb *bcast.CycleBroadcast
	size := allocatedBy(func() {
		var sc *SubsetCycle
		if sc, err = DecodeSubsetCycle(frame); err == nil {
			cb, err = sc.Broadcast()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The columns with room for one more, two n-long header slices
	// (values, columns), the matrix's shared marks and 4 KiB for the rest.
	if limit := uint64((count+2)*n*8 + 2*n*24 + n + 4<<10); size > limit {
		t.Errorf("a %d-byte frame of %d object(s) of %d allocated %d bytes; want <= %d", len(frame), count, n, size, limit)
	}
	for i := 0; i < n; i += 97 {
		if got := cb.Matrix.At(i, 7); got != col[i] {
			t.Fatalf("C(%d, 7) = %d, want %d", i, got, col[i])
		}
		if got := cb.Matrix.At(i, 8); got != number {
			t.Fatalf("unsubscribed C(%d, 8) = %d, want the poison %d", i, got, number)
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

func FuzzSubsetSubscribeFrame(f *testing.F) {
	f.Add(EncodeSubsetSubscribe([]int{0, 3, 7}))
	f.Add(EncodeSubsetSubscribe(nil))
	f.Add([]byte{})
	f.Add([]byte("BCQ2 garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, err := DecodeSubsetSubscribe(data)
		if err != nil {
			return
		}
		round, err := DecodeSubsetSubscribe(EncodeSubsetSubscribe(objs))
		if err != nil {
			t.Fatalf("accepted subset failed round trip: %v", err)
		}
		if len(round) != len(objs) {
			t.Fatal("subset round trip changed shape")
		}
	})
}

func FuzzDecodeSubsetCycle(f *testing.F) {
	cb, objs := subsetFixture(f)
	sc, err := SubsetOf(cb, objs)
	if err != nil {
		f.Fatal(err)
	}
	good, err := EncodeSubsetCycle(sc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("BCQ3 garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeSubsetCycle(data)
		if err != nil {
			return
		}
		re, err := EncodeSubsetCycle(sc)
		if err != nil {
			t.Fatalf("decoded subset cycle failed to re-encode: %v", err)
		}
		again, err := DecodeSubsetCycle(re)
		if err != nil {
			t.Fatalf("re-encoded subset cycle failed to decode: %v", err)
		}
		if again.Number != sc.Number || len(again.Objs) != len(sc.Objs) {
			t.Fatal("subset cycle decode/encode/decode unstable")
		}
		// The full-width view is n×n by design; build it only where the
		// fuzzer's memory can hold it.
		if sc.Objects > 1<<10 {
			return
		}
		if _, err := sc.Broadcast(); err != nil {
			t.Fatalf("accepted subset cycle failed to build a view: %v", err)
		}
	})
}
