package wire

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/dgram"
)

// TestMagicsUnique: no two frame kinds — and no frame kind and the
// datagram packet header — share a magic, so a frame that strays onto
// the wrong channel is always rejected as the wrong kind instead of
// being parsed as something else.
func TestMagicsUnique(t *testing.T) {
	seen := map[[4]byte]string{dgram.Magic: "dgram packet"}
	for k := KindCycle; int(k) < len(kinds); k++ {
		if other, dup := seen[kinds[k].magic]; dup {
			t.Errorf("%v and %s share the magic %q", k, other, kinds[k].magic[:])
		}
		seen[kinds[k].magic] = k.String()
	}
	if len(seen) != len(kinds) {
		t.Errorf("%d distinct magics for %d kinds plus the packet header", len(seen), len(kinds)-1)
	}
}

// TestKindOfGoldenFrames classifies every golden frame and checks that
// each kind's guard rejects every other kind's frame.
func TestKindOfGoldenFrames(t *testing.T) {
	want := map[string]Kind{
		"BCC1": KindCycle, "BCD1": KindDelta, "BCG1": KindGrouped, "BCI1": KindIndex,
		"BCB1": KindBucket, "BCQ1": KindCacheRecord, "BCU1": KindUpdate, "reply": KindUnknown,
	}
	for _, g := range readGolden(t) {
		prefix, _, _ := strings.Cut(g.name, "-")
		got := KindOf(g.data)
		if got != want[prefix] {
			t.Errorf("%s classified as %v, want %v", g.name, got, want[prefix])
		}
		for k := KindCycle; int(k) < len(kinds); k++ {
			if err := k.check(g.data); (err == nil) != (k == got) {
				t.Errorf("%v guard on a %s frame: %v", k, g.name, err)
			}
		}
	}
	// Short buffers, and the retired magics no table row names any more:
	// the cross-shard shots and the subset filter and subset cycle.
	for _, stray := range [][]byte{nil, []byte("BCC"), []byte("BCP1\x00"), []byte("BCT1\x00"),
		[]byte("BCQ2\x00"), []byte("BCQ3\x00")} {
		if KindOf(stray) != KindUnknown {
			t.Errorf("%q classified as a frame", stray)
		}
	}
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// overflowCycleHeader is the 26-byte frame that took a tuner down
// before PR 14: objects = objBytes = 2³¹ under 24-bit matrix control
// describes 2³¹ · 2³³ = 2⁶⁴ ≡ 0 payload bytes, so a multiplicative
// length guard saw "26 bytes, as described" and DecodeCycle went on to
// make([][]byte, 2³¹).
func overflowCycleHeader() []byte {
	hdr := make([]byte, headerBytes)
	copy(hdr, "BCC1")
	binary.BigEndian.PutUint64(hdr[4:12], 1)
	binary.BigEndian.PutUint32(hdr[12:16], 1<<31)
	binary.BigEndian.PutUint32(hdr[16:20], 1<<31)
	hdr[20] = 24
	hdr[21] = byte(bcast.ControlMatrix)
	return hdr
}

func TestOverflowHeadersRejected(t *testing.T) {
	var err error
	if n := allocatedBy(func() { _, err = DecodeCycle(overflowCycleHeader()) }); err == nil || n > 1<<20 {
		t.Fatalf("26-byte overflow header: err = %v after allocating %d bytes", err, n)
	}

	// The guard itself, at the extremes a 32-bit record count and a
	// record of two 2³²-byte runs reach: 2³¹ · 2³³ = 2⁶⁴ bytes must not
	// wrap to "as described".
	const head = 25
	buf := make([]byte, head)
	if err := wantLen(buf, head, 1<<31, 1<<33); err == nil {
		t.Fatal("wantLen accepted a record run of 2⁶⁴ bytes")
	}
	if err := wantLen(buf, head, 0, 1<<33); err != nil {
		t.Fatalf("wantLen rejected an empty run: %v", err)
	}
	if err := wantLen(buf[:head-1], head, 0, 1); err == nil {
		t.Fatal("wantLen accepted a frame shorter than its header")
	}
}

// TestDeltaCycleNotAfterBaseRejected: a delta frame naming cycle 0 (or
// any cycle not after its base) used to reach the timestamp codec with
// a negative unwrap reference and panic.
func TestDeltaCycleNotAfterBaseRejected(t *testing.T) {
	var prev *bcast.CycleBroadcast
	var frame []byte
	for _, g := range readGolden(t) {
		switch g.name {
		case "BCC1-matrix":
			cb, err := DecodeCycle(g.data)
			if err != nil {
				t.Fatal(err)
			}
			prev = cb
		case "BCD1-delta":
			frame = g.data
		}
	}
	if _, err := DecodeCycleDelta(frame, prev); err != nil {
		t.Fatalf("golden delta: %v", err)
	}
	for _, number := range []uint64{0, uint64(prev.Number)} {
		bad := append([]byte(nil), frame...)
		binary.BigEndian.PutUint64(bad[4:12], number)
		if _, err := DecodeCycleDelta(bad, prev); err == nil {
			t.Errorf("delta for cycle %d over base %d accepted", number, prev.Number)
		}
	}
}

// TestUnknownControlKindRejected: bcast.Layout.Validate lets a control
// byte outside the four kinds through, and before PR 14 DecodeCycle
// accepted such a frame as one without control.
func TestUnknownControlKindRejected(t *testing.T) {
	frame := append(overflowCycleHeader()[:headerBytes:headerBytes], 0xAB)
	binary.BigEndian.PutUint32(frame[12:16], 1) // objects
	binary.BigEndian.PutUint32(frame[16:20], 1) // objBytes
	frame[21] = 48
	if _, err := DecodeCycle(frame); err == nil {
		t.Fatal("a cycle frame under control kind 48 decoded")
	}
}
