package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/sim"
	"broadcastcc/internal/wire"
)

// DeltaPoint is one row of the incremental-transmission analysis
// (Section 3.2.1 future work): how many bits per broadcast cycle the
// control information costs when sent as deltas over the previous
// cycle, versus the full n²·TS matrix.
type DeltaPoint struct {
	// ServerInterval is the bit-units between server commits.
	ServerInterval float64
	// FullControlBits is the fixed per-cycle cost of broadcasting the
	// whole C matrix (n²·TS).
	FullControlBits int64
	// FullCycleBits is the whole full-frame cycle: every value plus the
	// whole matrix.
	FullCycleBits int64
	// MeanDeltaControlBits is the mean per-cycle cost of the changed
	// matrix entries alone (index pair + wrapped timestamp each).
	MeanDeltaControlBits float64
	// MeanDeltaTotalBits is the mean per-cycle cost of a whole delta
	// frame: header, changed values, changed matrix entries.
	MeanDeltaTotalBits float64
	// MeanChangedEntries is the mean number of changed C entries per
	// cycle.
	MeanChangedEntries float64
	// MeanChangedValues is the mean number of objects rewritten per
	// cycle.
	MeanChangedValues float64
	// ControlRatio is MeanDeltaControlBits / FullControlBits.
	ControlRatio float64
	// TotalRatio is MeanDeltaTotalBits / FullCycleBits.
	TotalRatio float64
}

// DeltaAnalysis measures incremental-transmission savings across server
// commit rates at the Table 1 layout: it replays the simulator's server
// workload on a server.Server, publishes every cycle, and prices each
// cycle's delta over the one before with the real wire format.
func DeltaAnalysis(opt Options) ([]*DeltaPoint, error) {
	opt = opt.normalized()
	base := sim.DefaultConfig()
	const cycles = 300
	intervals := []float64{62500, 125000, 250000, 500000, 1000000}
	var out []*DeltaPoint
	for _, interval := range intervals {
		srv, err := server.New(server.Config{Objects: base.Objects, ObjectBits: base.ObjectBits, TimestampBits: base.TimestampBits, Algorithm: protocol.FMatrix})
		if err != nil {
			return nil, err
		}
		layout := srv.Layout()
		rng := rand.New(rand.NewSource(opt.Seed))
		prev := cmatrix.NewMatrix(base.Objects)
		nextCommit := interval
		cycleBits := float64(layout.CycleBits())

		var totalBits, controlBits float64
		var totalEntries, totalValues int64
		for c := int64(1); c <= cycles; c++ {
			start := float64(c-1) * cycleBits
			for nextCommit < start {
				var rs, ws []int
				for op := 0; op < base.ServerTxnLength; op++ {
					obj := rng.Intn(base.Objects)
					if rng.Float64() < base.ServerReadProb {
						rs = append(rs, obj)
					} else {
						ws = append(ws, obj)
					}
				}
				// Reads first, as the simulator's server issues them.
				txn := srv.Begin()
				for _, obj := range rs {
					_, _ = txn.Read(obj) // in range on an open server: cannot fail
				}
				for _, obj := range ws {
					_ = txn.Write(obj, nil) // in range, and nil fits any slot
				}
				if err := txn.Commit(); err != nil {
					return nil, err
				}
				nextCommit += interval
			}
			cb := srv.StartCycle()
			entries, err := cmatrix.Diff(prev, cb.Matrix)
			if err != nil {
				return nil, err
			}
			totalBits += float64(wire.DeltaBits(layout, len(cb.Written), len(entries)))
			controlBits += float64(wire.DeltaBits(layout, 0, len(entries)))
			totalEntries += int64(len(entries))
			totalValues += int64(len(cb.Written))
			prev = cb.Matrix
		}
		fullCtrl := int64(layout.Objects) * layout.ControlBitsPerObject()
		pt := &DeltaPoint{
			ServerInterval:       interval,
			FullControlBits:      fullCtrl,
			FullCycleBits:        layout.CycleBits(),
			MeanDeltaControlBits: controlBits / cycles,
			MeanDeltaTotalBits:   totalBits / cycles,
			MeanChangedEntries:   float64(totalEntries) / cycles,
			MeanChangedValues:    float64(totalValues) / cycles,
		}
		pt.ControlRatio = pt.MeanDeltaControlBits / float64(fullCtrl)
		pt.TotalRatio = pt.MeanDeltaTotalBits / float64(pt.FullCycleBits)
		out = append(out, pt)
		opt.Progress("delta: interval=%g control %.0f/%d bits (%.0f%%), cycle %.0f/%d bits (%.0f%%)",
			interval, pt.MeanDeltaControlBits, fullCtrl, 100*pt.ControlRatio,
			pt.MeanDeltaTotalBits, pt.FullCycleBits, 100*pt.TotalRatio)
	}
	return out, nil
}

// DeltaTable renders the analysis as an aligned table.
func DeltaTable(points []*DeltaPoint) string {
	var b strings.Builder
	b.WriteString("Incremental C-matrix transmission (Section 3.2.1 future work)\n")
	fmt.Fprintf(&b, "%-17s%-15s%-17s%-14s%-15s%-14s%s\n",
		"server interval", "Δctrl bits", "ctrl Δ/full", "Δentries", "Δcycle bits", "Δobjs", "cycle Δ/full")
	for _, p := range points {
		fmt.Fprintf(&b, "%-17g%-15.0f%-17s%-14.1f%-15.0f%-14.2f%s\n",
			p.ServerInterval, p.MeanDeltaControlBits,
			fmt.Sprintf("%.1f%% of %d", 100*p.ControlRatio, p.FullControlBits),
			p.MeanChangedEntries, p.MeanDeltaTotalBits, p.MeanChangedValues,
			fmt.Sprintf("%.1f%% of %d", 100*p.TotalRatio, p.FullCycleBits))
	}
	return b.String()
}
