package wire_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// An external test package: the patch contract has two ends — the
// server says which objects a cycle wrote, the codec rewrites exactly
// those records — and the server imports wire.

const (
	patchObjects = 7
	patchSlot    = 5 // bytes per value slot
)

var patchWidths = []int{1, 3, 8, 13, 32}

// patchRig drives a real server through a commit stream and plays the
// sender beside it: it keeps the last frame it made and asks PatchCycle
// to turn it into the next, checking every frame against the
// from-scratch encoder.
type patchRig struct {
	t    testing.TB
	srv  *server.Server
	kept []byte
	gap  bool // a cycle went by that the sender never encoded

	written map[int64][]int // cycle number → the Written it was published with
	counts  struct{ patched, scratch, commits, refused int }
}

func newPatchRig(t testing.TB, alg protocol.Algorithm, tsBits int) *patchRig {
	initial := make([][]byte, patchObjects)
	for i := range initial {
		initial[i] = bytes.Repeat([]byte{byte(0xA0 + i)}, i%(patchSlot+1))
	}
	srv, err := server.New(server.Config{
		Objects: patchObjects, ObjectBits: patchSlot * 8, TimestampBits: tsBits,
		Algorithm: alg, Groups: 3, InitialValues: initial, Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &patchRig{t: t, srv: srv, written: map[int64][]int{}}
}

// step puts the next cycle on the air. A skipped cycle is one somebody
// else's StartCycle consumed: the sender sees only the gap it leaves.
func (r *patchRig) step(skip bool) {
	t := r.t
	cb := r.srv.StartCycle()
	r.written[int64(cb.Number)] = cb.Written
	if skip {
		r.gap = true
		return
	}
	frame, patched, err := wire.PatchCycle(r.kept, cb)
	if err != nil {
		t.Fatalf("cycle %d: PatchCycle: %v", cb.Number, err)
	}
	want, err := wire.EncodeCycle(cb)
	if err != nil {
		t.Fatalf("cycle %d: EncodeCycle: %v", cb.Number, err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("cycle %d (written %v, patched %v): frame differs from EncodeCycle\n got  %x\n want %x", cb.Number, cb.Written, patched, frame, want)
	}
	if cap(r.kept) >= len(frame) && &frame[:1][0] != &r.kept[:1][0] {
		t.Fatalf("cycle %d (patched %v): the frame is not built in the storage of the one it was given", cb.Number, patched)
	}
	can := r.kept != nil && !r.gap && cb.Layout.Control != bcast.ControlGrouped
	if patched != can {
		t.Fatalf("cycle %d: patched %v, want %v (kept %d bytes, gap %v, %v control)", cb.Number, patched, can, len(r.kept), r.gap, cb.Layout.Control)
	}
	if patched {
		r.counts.patched++
	} else {
		r.counts.scratch++
	}
	r.kept, r.gap = frame, false
}

// refuse offers the next cycle with one written value wider than its
// slot: PatchCycle refuses it in EncodeCycle's words, and a frame it
// could have patched stays byte for byte what it was. The cycle goes
// unsent, so the next one follows a gap.
func (r *patchRig) refuse(obj int) {
	t := r.t
	cb := *r.srv.StartCycle()
	r.written[int64(cb.Number)] = cb.Written
	cb.Values = slices.Clone(cb.Values)
	cb.Values[obj] = make([]byte, patchSlot+1)
	if cb.Written != nil {
		cb.Written = append(slices.Clone(cb.Written), obj)
	}
	before := bytes.Clone(r.kept)
	_, wantErr := wire.EncodeCycle(&cb)
	frame, patched, err := wire.PatchCycle(r.kept, &cb)
	if err == nil || patched || err.Error() != wantErr.Error() {
		t.Fatalf("cycle %d: PatchCycle = (patched %v, %v), EncodeCycle refuses with %v", cb.Number, patched, err, wantErr)
	}
	can := r.kept != nil && !r.gap && cb.Layout.Control != bcast.ControlGrouped
	if can && (!bytes.Equal(frame, before) || &frame[0] != &r.kept[0]) {
		t.Fatalf("cycle %d: a refused patch did not leave the frame as it was", cb.Number)
	}
	if !can && frame != nil {
		t.Fatalf("cycle %d: a failed encode from scratch left a %d-byte frame to keep", cb.Number, len(frame))
	}
	r.kept, r.gap = frame, true
	r.counts.refused++
}

// op runs one operation of the stream; next supplies its parameters.
func (r *patchRig) op(code byte, next func() int) {
	obj := func() int { return next() % patchObjects }
	value := func() []byte {
		v := make([]byte, next()%(patchSlot+1)) // every length 0..slot
		for i := range v {
			v[i] = byte(next())
		}
		return v
	}
	request := func() protocol.UpdateRequest {
		// Reads stamped with the cycle on the air, or with the one before:
		// stale whenever the object was written since, so refused.
		req := protocol.UpdateRequest{Reads: []protocol.ReadAt{{Obj: obj(), Cycle: r.srv.CurrentCycle() - cmatrix.Cycle(next()%2)}}}
		for w := next() % 3; w > 0; w-- { // none: a write-free update, no commit
			req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: obj(), Value: value()})
		}
		return req
	}
	count := func(err error) {
		if err == nil {
			r.counts.commits++
		} else {
			r.counts.refused++
		}
	}
	switch code % 9 {
	case 0, 1, 2:
		r.step(false)
	case 3:
		r.step(true)
	case 4:
		count(r.srv.SubmitUpdate(request()))
	case 5, 6: // a cross-shard projection: remote (5) folds in through ApplyRemote
		count(server.SubmitAcross([]*server.Server{r.srv}, []protocol.UpdateRequest{request()}, []bool{code%9 == 5}))
	case 7: // server-local transaction
		txn := r.srv.Begin()
		if _, err := txn.Read(obj()); err != nil {
			r.t.Fatal(err)
		}
		if err := txn.Write(obj(), value()); err != nil {
			r.t.Fatal(err)
		}
		count(txn.Commit())
	case 8:
		r.refuse(obj())
	}
}

// finish checks every published Written against the audit log: the
// sorted distinct union of the write sets committed during the cycle
// before, nil on cycle 1 only, empty but not nil after a quiet cycle.
func (r *patchRig) finish() {
	t := r.t
	r.srv.Close()
	committed := map[int64][]int{}
	for _, c := range r.srv.AuditLog() {
		committed[int64(c.Cycle)] = append(committed[int64(c.Cycle)], c.WriteSet...)
	}
	for number, got := range r.written {
		want := committed[number-1]
		slices.Sort(want)
		want = slices.Compact(want)
		switch {
		case number == 1 && got != nil:
			t.Errorf("cycle 1: Written = %v, want nil (nothing to patch from)", got)
		case number > 1 && got == nil:
			t.Errorf("cycle %d: Written is nil, want %v", number, want)
		case number > 1 && !slices.Equal(got, want):
			t.Errorf("cycle %d: Written = %v, the audit log's cycle %d wrote %v", number, got, number-1, want)
		}
	}
}

// TestPatchCycleMatchesEncodeCycle is the differential check PatchCycle
// stands on: over 10⁴ cycles of a random commit stream per control kind
// and timestamp width — wrap-around many times over at the narrow ones,
// every commit entrance, refused and write-free updates, values of
// every length — each patched frame is EncodeCycle's, byte for byte,
// and each Written is the audit log's.
func TestPatchCycleMatchesEncodeCycle(t *testing.T) {
	const cycles = 10000
	for _, alg := range []protocol.Algorithm{protocol.FMatrix, protocol.RMatrix} {
		for _, tsBits := range patchWidths {
			t.Run(fmt.Sprintf("%v/ts%d", alg, tsBits), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tsBits)))
				r := newPatchRig(t, alg, tsBits)
				for len(r.written) < cycles {
					r.op(byte(rng.Intn(8)), func() int { return rng.Intn(256) })
				}
				r.finish()
				c := r.counts
				if c.patched < cycles/2 || c.scratch < cycles/20 || c.commits < cycles/2 || c.refused < cycles/20 {
					t.Errorf("the stream did not exercise the paths it is for: %+v", c)
				}
			})
		}
	}
}

// FuzzCyclePatch lets the fuzzer write the stream: op bytes choose
// between a commit through each entrance, a step, a step the sender
// never saw, and a step PatchCycle refuses; the bytes after an op are
// its parameters.
func FuzzCyclePatch(f *testing.F) {
	f.Add(uint8(0), []byte{0, 4, 1, 0, 2, 3, 3, 9, 9, 9, 0, 7, 2, 5, 1, 1, 0, 3, 0, 0})
	f.Add(uint8(3), []byte{4, 0, 0, 1, 6, 2, 1, 0, 5, 1, 0, 1, 2, 4, 7, 0, 0, 6, 1, 0, 0, 0})
	f.Add(uint8(5), []byte{0, 0, 7, 3, 3, 5, 255, 254, 253, 252, 251, 0, 3, 0, 0})
	f.Add(uint8(8), []byte{})
	f.Add(uint8(2), []byte{0, 0, 8, 1, 0, 8, 2, 0, 0, 3, 8, 4, 0, 0})
	f.Fuzz(func(t *testing.T, cfg uint8, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		alg := []protocol.Algorithm{protocol.FMatrix, protocol.RMatrix}[cfg%2]
		r := newPatchRig(t, alg, patchWidths[int(cfg/2)%len(patchWidths)])
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			r.op(byte(next()), next)
		}
		r.step(false)
		r.finish()
	})
}

// TestPatchCycleFallbacks: whatever PatchCycle cannot patch it encodes
// from scratch — same bytes, same errors as EncodeCycle.
func TestPatchCycleFallbacks(t *testing.T) {
	r := newPatchRig(t, protocol.RMatrix, 8)
	defer r.srv.Close()
	r.step(false)
	write := func(obj int, v string) {
		t.Helper()
		if err := r.srv.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: obj, Value: []byte(v)}}}); err != nil {
			t.Fatal(err)
		}
	}
	write(2, "two")
	r.step(false)
	write(4, "four")
	// The rig patches its frame in place: what outlives a step is cloned.
	older := bytes.Clone(r.kept)
	r.step(false)
	prev := bytes.Clone(r.kept)
	write(1, "one")
	cb := r.srv.StartCycle()
	want, err := wire.EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	if frame, patched, err := wire.PatchCycle(bytes.Clone(prev), cb); err != nil || !patched || !bytes.Equal(frame, want) {
		t.Fatalf("the frame of the cycle before: patched %v, err %v, equal %v", patched, err, bytes.Equal(frame, want))
	}

	// The same dimensions at another timestamp width: a frame of the same
	// length whose header names another layout.
	other := *cb
	other.Layout.TimestampBits = 7
	otherPrev := *cb
	otherPrev.Number, otherPrev.Layout = cb.Number-1, other.Layout
	otherLayout, err := wire.EncodeCycle(&otherPrev)
	if err != nil || len(otherLayout) != len(prev) {
		t.Fatalf("fixture: %v, %d bytes against %d", err, len(otherLayout), len(prev))
	}
	unknown := *cb
	unknown.Written = nil
	for name, tc := range map[string]struct {
		prev []byte
		cb   *bcast.CycleBroadcast
	}{
		"no frame kept":          {nil, cb},
		"cycle gap":              {older, cb},
		"same cycle":             {want, cb},
		"another layout":         {otherLayout, cb},
		"truncated":              {prev[:len(prev)-1], cb},
		"one byte longer":        {append(bytes.Clone(prev), 0), cb},
		"another kind":           {append([]byte("BCD1"), prev[4:]...), cb},
		"written set unknown":    {prev, &unknown},
		"header only":            {prev[:26], cb},
		"shorter than a header":  {prev[:11], cb},
		"layout changed beneath": {prev, &other},
	} {
		want, wantErr := wire.EncodeCycle(tc.cb)
		frame, patched, err := wire.PatchCycle(bytes.Clone(tc.prev), tc.cb)
		if patched || fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(frame, want) {
			t.Errorf("%s: patched %v, err %v (EncodeCycle: %v), bytes equal %v", name, patched, err, wantErr, bytes.Equal(frame, want))
		}
	}

	// What PatchCycle reads of the cycle it refuses in EncodeCycle's
	// words, patchable base or not: an over-long written value, a missing
	// control structure, a value count that is not the layout's. A cycle
	// it would have patched leaves the base as it was, to be kept; the
	// rest leave nothing to keep.
	long := *cb
	long.Values = slices.Clone(cb.Values)
	long.Values[1] = make([]byte, patchSlot+1)
	bare := *cb
	bare.Vector = nil
	short := *cb
	short.Values = cb.Values[:patchObjects-1]
	for name, tc := range map[string]struct {
		cb    *bcast.CycleBroadcast
		keeps bool
	}{"over-long written value": {&long, true}, "no control": {&bare, true}, "missing value": {&short, false}} {
		_, wantErr := wire.EncodeCycle(tc.cb)
		base := bytes.Clone(prev)
		frame, patched, err := wire.PatchCycle(base, tc.cb)
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() || patched {
			t.Errorf("%s: PatchCycle = (%d bytes, %v, %v), EncodeCycle refuses with %v", name, len(frame), patched, err, wantErr)
		}
		if kept := frame != nil && &frame[0] == &base[0] && bytes.Equal(frame, prev); kept != tc.keeps || (!kept && frame != nil) {
			t.Errorf("%s: PatchCycle left a %d-byte frame to keep, the base as it was: %v (want %v)", name, len(frame), kept, tc.keeps)
		}
	}

	// Grouped control never patches: a row MC(i, ·) moves with any column
	// of the group, so Written does not name the records that changed.
	g := newPatchRig(t, protocol.Grouped, 8)
	rng := rand.New(rand.NewSource(7))
	for len(g.written) < 200 {
		g.op(byte(rng.Intn(8)), func() int { return rng.Intn(256) })
	}
	g.finish()
	if g.counts.patched != 0 || g.counts.commits == 0 {
		t.Errorf("grouped stream: %+v, want commits and no patched frame", g.counts)
	}
}

// TestPatchCycleVectorAllocs: patching a vector frame allocates
// nothing — the frame is rewritten where it lies, one cycle after
// another. The one-entry column buffer PatchCycle hands to wire.Column
// stays on its stack only while Column lets no buffer escape
// (fanout-small measured one more allocation per cycle when it did).
func TestPatchCycleVectorAllocs(t *testing.T) {
	const n = 32
	cb := &bcast.CycleBroadcast{Number: 5, Layout: bcast.LayoutFor(protocol.RMatrix, n, 512, 8, 0), Values: make([][]byte, n), Vector: cmatrix.NewVector(n)}
	frame, err := wire.EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	next := *cb
	next.Written = []int{3, 17}
	if got := testing.AllocsPerRun(20, func() {
		next.Number++
		patched, ok, err := wire.PatchCycle(frame, &next)
		if err != nil || !ok || &patched[0] != &frame[0] {
			t.Fatalf("cycle %d: patched %v in place %v, err %v", next.Number, ok, err == nil && &patched[0] == &frame[0], err)
		}
	}); got != 0 {
		t.Errorf("PatchCycle of a vector frame: %.0f allocations, want 0", got)
	}
}
