package wire

import (
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// goldenFrame is one canonical frame of the byte-identity oracle.
type goldenFrame struct {
	name string
	data []byte
}

// goldenFrames encodes one hand-built frame of every kind the package
// speaks. testdata/frames.golden holds their bytes as the encoders of
// PR 13 produced them; a codec change that moves a single bit of any
// frame fails TestGoldenFrames.
func goldenFrames(t testing.TB) []goldenFrame {
	t.Helper()
	var out []goldenFrame
	add := func(name string, data []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenFrame{name, data})
	}

	matrix := matrixFixture()
	data, err := EncodeCycle(matrix)
	add("BCC1-matrix", data, err)

	vec, err := cmatrix.VectorFromEntries([]cmatrix.Cycle{0, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err = EncodeCycle(&bcast.CycleBroadcast{
		Number: 6,
		Layout: bcast.LayoutFor(protocol.RMatrix, 3, 24, 12, 0),
		Values: [][]byte{{1, 2, 3}, nil, {9}},
		Vector: vec,
	})
	add("BCC1-vector", data, err)

	// Rows 0, 3 and 5 are full (BCG1 sends them dense), the rest sparse.
	mc, err := cmatrix.GroupedFromRows(cmatrix.UniformPartition(6, 3), [][]cmatrix.Cycle{
		{3, 5, 9}, {0, 0, 0}, {0, 4, 0}, {11, 2, 7}, {0, 0, 10}, {1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	grouped := &bcast.CycleBroadcast{
		Number:  12,
		Layout:  bcast.LayoutFor(protocol.Grouped, 6, 16, 8, 3),
		Values:  [][]byte{{0xA0}, {0xA1, 1}, nil, {0xA3}, {0xA4, 4}, {0xA5}},
		Grouped: mc,
	}
	data, err = EncodeCycle(grouped)
	add("BCC1-grouped", data, err)

	next := matrix.Matrix.Clone()
	next.Apply([]int{2}, []int{0}, 7)
	data, err = EncodeCycleDelta(matrix, &bcast.CycleBroadcast{
		Number: 8, Layout: matrix.Layout,
		Values: [][]byte{[]byte("A"), []byte("bb"), nil, []byte("d")},
		Matrix: next,
	})
	add("BCD1-delta", data, err)

	data, err = EncodeGroupedCycle(grouped, 3, true)
	add("BCG1-partition", data, err)
	data, err = EncodeGroupedCycle(grouped, 3, false)
	add("BCG1-bare", data, err)

	data, err = EncodeIndexFrame(sampleIndexFrame())
	add("BCI1", data, err)

	data, err = EncodeBucket(sampleBucket(bcast.ControlMatrix), nil)
	add("BCB1-full", data, err)
	data, err = EncodeBucket(sampleBucket(bcast.ControlMatrix), []cmatrix.Cycle{0, 4, 8, 7, 2})
	add("BCB1-delta", data, err)

	add("BCQ1-put", EncodeCacheRecord(CacheRecord{
		Kind: CachePut, Obj: 5, Cycle: 9, Value: []byte("val"), Col: []cmatrix.Cycle{1, 0, 8},
	}), nil)
	add("BCQ1-delete", EncodeCacheRecord(CacheRecord{Kind: CacheDelete, Obj: 5, Cycle: 10}), nil)

	req := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 1, Cycle: 3}, {Obj: 2, Cycle: 5}},
		Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte("v")}, {Obj: 3}},
	}
	add("BCU1", EncodeUpdateRequest(req), nil)
	add("reply-ok", EncodeUpdateReply(nil), nil)
	add("reply-reject", EncodeUpdateReply(errors.New("conflict on object 3")), nil)
	return out
}

// matrixFixture is the golden BCC1 matrix cycle (and the BCD1 delta's
// base): n = 4 under F-Matrix control at cycle 7.
func matrixFixture() *bcast.CycleBroadcast {
	m := cmatrix.NewMatrix(4)
	m.Apply([]int{0}, []int{1}, 3)
	m.Apply([]int{1}, []int{2, 3}, 5)
	return &bcast.CycleBroadcast{
		Number: 7, Layout: bcast.LayoutFor(protocol.FMatrix, 4, 16, 8, 0),
		Values: [][]byte{[]byte("a"), []byte("bb"), nil, []byte("d")},
		Matrix: m,
	}
}

// readGolden parses testdata/frames.golden: one "name hex" line per
// frame.
func readGolden(t testing.TB) []goldenFrame {
	t.Helper()
	raw, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenFrame
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("frames.golden: malformed line %q", line)
		}
		data, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("frames.golden: %s: %v", name, err)
		}
		out = append(out, goldenFrame{name, data})
	}
	return out
}

// TestGoldenFrames is the byte-identity oracle: every encoder must
// reproduce its committed frame exactly.
func TestGoldenFrames(t *testing.T) {
	got, want := goldenFrames(t), readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d frames encoded, frames.golden holds %d", len(got), len(want))
	}
	for i, g := range got {
		if g.name != want[i].name {
			t.Fatalf("frame %d is %s, frames.golden has %s", i, g.name, want[i].name)
		}
		if gh, wh := hex.EncodeToString(g.data), hex.EncodeToString(want[i].data); gh != wh {
			t.Errorf("%s changed on the wire:\n got %s\nwant %s", g.name, gh, wh)
		}
	}
}
