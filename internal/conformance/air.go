package conformance

import (
	"fmt"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/wire"
)

// airViolationCap bounds how many air-layer violations one run reports;
// a single codec bug fires on every subsequent occurrence, and the
// shrinker only needs one witness.
const airViolationCap = 8

// checkAirProgram replays the workload's broadcast through the airsched
// wire path and checks the rebroadcast invariant of Theorems 1 and 2 at
// the frame level: a perfectly receiving selective client — one that
// hears every occurrence and follows every delta chain — must
// reconstruct, at every data frame of major cycle c, exactly the control
// column a from-scratch rebuild of the commit log as of the start of c
// prescribes. Index frames must round-trip their doze schedule
// unchanged. The columns put on the air come from the per-cycle server
// snapshots, so the check is differential end to end: server control
// state → program-mode encoding (deltas and refreshes included) →
// client-side decoding → the paper's definition.
func checkAirProgram(w *Workload, log []cmatrix.Commit, snaps []cycleSnap) ([]Violation, error) {
	a := w.Air
	if a == nil {
		return nil, nil
	}
	layout := bcast.LayoutFor(protocol.FMatrix, w.Objects, 64, 8, 0)
	prog, err := airsched.Build(layout, airsched.ZipfWeights(w.Objects, a.Skew), a.Disks, a.IndexM)
	if err != nil {
		return nil, fmt.Errorf("conformance: building air program: %w", err)
	}
	tl := airsched.NewTimeline(prog)
	frames := tl.Frames()

	seqs := make([]uint32, w.Objects)              // server-side occurrence counters
	prevCols := make([][]cmatrix.Cycle, w.Objects) // server-side delta bases
	lastSeq := make([]uint32, w.Objects)           // client-side chain state
	lastCol := make([][]cmatrix.Cycle, w.Objects)

	var out []Violation
	report := func(kind, detail string) {
		if len(out) < airViolationCap {
			out = append(out, Violation{Kind: kind, Client: -1, Txn: -1, Detail: detail})
		}
	}

	prefix := 0
	for c := cmatrix.Cycle(1); c <= w.Cycles; c++ {
		onAir := snaps[c].mat
		for prefix < len(log) && log[prefix].Cycle < c {
			prefix++
		}
		want := cmatrix.FromLog(w.Objects, log[:prefix])
		for i, f := range frames {
			switch f.Kind {
			case airsched.FrameIndex:
				offs := make([]int, w.Objects)
				for obj := range offs {
					offs[obj] = tl.NextOccurrence(i, obj)
				}
				enc, err := wire.EncodeIndexFrame(&wire.IndexFrame{
					Number:    c,
					Segment:   f.Segment,
					M:         prog.IndexM(),
					Frames:    tl.FrameCount(),
					NextIndex: tl.NextIndexDistance(i),
					Offsets:   offs,
				})
				if err != nil {
					return out, fmt.Errorf("conformance: encoding index frame %d of cycle %d: %w", i, c, err)
				}
				dec, err := wire.DecodeIndexFrame(enc)
				if err != nil {
					report(KindAirIndex, fmt.Sprintf("cycle %d frame %d: index frame does not decode: %v", c, i, err))
					continue
				}
				if dec.Number != c || dec.Segment != f.Segment || !equalInts(dec.Offsets, offs) {
					report(KindAirIndex, fmt.Sprintf(
						"cycle %d frame %d: index round-trip drifted: sent segment %d offsets %v, decoded segment %d offsets %v",
						c, i, f.Segment, offs, dec.Segment, dec.Offsets))
				}
			case airsched.FrameData:
				obj := f.Obj
				seqs[obj]++
				col := onAir.Column(obj)
				var prev []cmatrix.Cycle
				if a.RefreshEvery > 0 && (seqs[obj]-1)%uint32(a.RefreshEvery) != 0 {
					prev = prevCols[obj]
				}
				enc, err := wire.EncodeBucket(&wire.Bucket{
					Number:    c,
					Layout:    layout,
					Obj:       obj,
					Seq:       seqs[obj],
					NextIndex: tl.NextIndexDistance(i),
					Value:     []byte{byte(obj)},
					Column:    col,
				}, prev)
				if err != nil {
					return out, fmt.Errorf("conformance: encoding bucket for object %d in cycle %d: %w", obj, c, err)
				}
				prevCols[obj] = col

				// Client side: a perfect receiver's delta chain must never
				// break, and the reconstructed column must match the
				// from-definition control state at the start of the cycle.
				_, dobj, dseq, delta, _, err := wire.BucketInfo(enc)
				if err != nil {
					report(KindAirRebroadcast, fmt.Sprintf("cycle %d frame %d: bucket header unreadable: %v", c, i, err))
					continue
				}
				var base []cmatrix.Cycle
				if delta {
					if lastSeq[obj]+1 != dseq || lastCol[obj] == nil {
						report(KindAirRebroadcast, fmt.Sprintf(
							"cycle %d frame %d: object %d delta chain broke for a perfect receiver (have seq %d, frame carries %d)",
							c, i, obj, lastSeq[obj], dseq))
						continue
					}
					base = lastCol[obj]
				}
				b, err := wire.DecodeBucket(enc, base)
				if err != nil {
					report(KindAirRebroadcast, fmt.Sprintf("cycle %d frame %d: bucket for object %d does not decode: %v", c, i, obj, err))
					continue
				}
				lastSeq[obj], lastCol[obj] = dseq, b.Column
				if b.Number != c || dobj != obj || b.Obj != obj {
					report(KindAirRebroadcast, fmt.Sprintf(
						"cycle %d frame %d: bucket identity drifted: decoded cycle %d object %d", c, i, b.Number, b.Obj))
					continue
				}
				if !equalCycles(b.Column, want.Column(obj)) {
					report(KindAirRebroadcast, fmt.Sprintf(
						"cycle %d occurrence %d of object %d: decoded column %v, rebuild over %d commits says %v",
						c, seqs[obj], obj, b.Column, prefix, want.Column(obj)))
				}
			}
		}
	}
	return out, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalCycles(a, b []cmatrix.Cycle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
