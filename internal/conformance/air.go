package conformance

import (
	"errors"
	"fmt"
	"slices"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/wire"
)

// airViolationCap bounds how many air-layer violations one run reports;
// a single codec bug fires on every subsequent occurrence, and the
// shrinker only needs one witness.
const airViolationCap = 8

// checkAirProgram replays the workload's broadcast through the
// transmitter netcast's program mode runs and the receiver chain its
// tuners follow, and checks the rebroadcast invariant of Theorems 1 and
// 2 at the frame level: a perfectly receiving selective client — one
// that hears every occurrence and follows every delta chain — must
// reconstruct, at every data frame of major cycle c, exactly the control
// column a from-scratch rebuild of the commit log as of the start of c
// prescribes. Index frames must carry the timeline's doze schedule.
// The columns put on the air come from the per-cycle server snapshots,
// so the check is differential end to end: server control state →
// netcast.ProgramEncoder (deltas and refreshes included) →
// netcast.BucketChain → the paper's definition.
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
	enc := netcast.NewProgramEncoder(prog, a.RefreshEvery)
	chain := netcast.BucketChain{}
	values := make([][]byte, w.Objects)
	for obj := range values {
		values[obj] = []byte{byte(obj)}
	}

	var out []Violation
	report := func(kind, detail string) {
		if len(out) < airViolationCap {
			out = append(out, Violation{Kind: kind, Client: -1, Txn: -1, Detail: detail})
		}
	}

	prefix := 0
	for c := cmatrix.Cycle(1); c <= w.Cycles; c++ {
		for prefix < len(log) && log[prefix].Cycle < c {
			prefix++
		}
		want := cmatrix.FromLog(w.Objects, log[:prefix])
		frames, _, _, err := enc.Encode(&bcast.CycleBroadcast{Number: c, Layout: layout, Values: values, Matrix: snaps[c].mat})
		if err != nil {
			return out, fmt.Errorf("conformance: encoding cycle %d: %w", c, err)
		}
		if len(frames) != tl.FrameCount() {
			report(KindAirIndex, fmt.Sprintf("cycle %d: %d frames on the air, timeline has %d", c, len(frames), tl.FrameCount()))
			continue
		}
		for i, f := range tl.Frames() {
			switch f.Kind {
			case airsched.FrameIndex:
				offs := make([]int, w.Objects)
				for obj := range offs {
					offs[obj] = tl.NextOccurrence(i, obj)
				}
				dec, err := wire.DecodeIndexFrame(frames[i])
				if err != nil {
					report(KindAirIndex, fmt.Sprintf("cycle %d frame %d: index frame does not decode: %v", c, i, err))
					continue
				}
				if dec.Number != c || dec.Segment != f.Segment || !slices.Equal(dec.Offsets, offs) {
					report(KindAirIndex, fmt.Sprintf(
						"cycle %d frame %d: index frame drifted: timeline has segment %d offsets %v, decoded segment %d offsets %v",
						c, i, f.Segment, offs, dec.Segment, dec.Offsets))
				}
			case airsched.FrameData:
				obj := f.Obj
				// A perfect receiver's delta chain must never break, and
				// the reconstructed column must match the from-definition
				// control state at the start of the cycle.
				b, err := chain.Decode(frames[i])
				if errors.Is(err, netcast.ErrBrokenChain) {
					report(KindAirRebroadcast, fmt.Sprintf(
						"cycle %d frame %d: object %d delta chain broke for a perfect receiver", c, i, obj))
					continue
				}
				if err != nil {
					report(KindAirRebroadcast, fmt.Sprintf("cycle %d frame %d: bucket for object %d does not decode: %v", c, i, obj, err))
					continue
				}
				if b.Number != c || b.Obj != obj {
					report(KindAirRebroadcast, fmt.Sprintf(
						"cycle %d frame %d: bucket identity drifted: decoded cycle %d object %d", c, i, b.Number, b.Obj))
					continue
				}
				if !slices.Equal(b.Column, want.Column(obj)) {
					report(KindAirRebroadcast, fmt.Sprintf(
						"cycle %d occurrence %d of object %d: decoded column %v, rebuild over %d commits says %v",
						c, b.Seq, obj, b.Column, prefix, want.Column(obj)))
				}
			}
		}
	}
	return out, nil
}
