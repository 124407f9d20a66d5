package conformance

import (
	"fmt"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

// Defect names a bug the harness induces on purpose, to show that the
// oracle catches its class and the shrinker keeps it. It is an input of
// one workload, not a process-wide switch: CheckWorkload injects it
// where the harness builds the code the bug would live in, so runs with
// different defects can share a process. The zero value induces none.
// Workloads carry it by name (see MarshalText).
type Defect int

const (
	// DefectNone induces nothing.
	DefectNone Defect = iota
	// DefectLooseRead weakens Theorem 1's strict read-condition
	// C(i,j) < cycle to C(i,j) <= cycle in every validator the oracle
	// runs: an off-by-one over-acceptance.
	DefectLooseRead
	// DefectStaleMC keeps the grouped server's MC as the naive running
	// max, which Theorem 2's column rewrites break
	// (server.Config.StaleGroupedMC).
	DefectStaleMC
	// DefectCacheSkip lets the modelled quasi-cache serve entries past
	// their currency bound.
	DefectCacheSkip
	// DefectTraceSkew flips every uplink verdict in the vector server's
	// trace, a pure trace divergence with no data-plane change.
	DefectTraceSkew
	// DefectAlignmentSkip drops the cross-shard cycle-alignment clause
	// from the sharded read-only acceptance.
	DefectAlignmentSkip
	defectCount
)

var defectNames = [defectCount]string{
	"", "loose-read", "stale-mc", "cache-skip", "trace-skew", "alignment-skip",
}

func (d Defect) String() string {
	if d < 0 || d >= defectCount {
		return fmt.Sprintf("Defect(%d)", int(d))
	}
	return defectNames[d]
}

// MarshalText encodes the defect by name (Validate refuses a value with
// none, so an encoded workload always decodes).
func (d Defect) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText decodes a defect name; an unknown name is an error.
func (d *Defect) UnmarshalText(b []byte) error {
	for i, name := range defectNames {
		if name == string(b) {
			*d = Defect(i)
			return nil
		}
	}
	return fmt.Errorf("conformance: unknown defect %q", b)
}

// validatorSnapshot is the control snapshot the oracle hands its own
// validators for s. Under DefectLooseRead every bound is lowered by one,
// floored at 0: for any read cycle c >= 1 the strict bound-1 < c is
// exactly the loose bound <= c. R-Matrix needs a *cmatrix.Vector, so a
// vector is rebuilt rather than wrapped.
func (d Defect) validatorSnapshot(s protocol.Snapshot) protocol.Snapshot {
	if d != DefectLooseRead {
		return s
	}
	v, ok := s.(*cmatrix.Vector)
	if !ok {
		return lowered{s}
	}
	e := make([]cmatrix.Cycle, v.N())
	for i := range e {
		e[i] = max(0, v.At(i)-1)
	}
	lv, _ := cmatrix.VectorFromEntries(e) // fails only when empty; n >= 1
	return lv
}

// lowered is a snapshot with every bound lowered by one, floored at 0.
type lowered struct{ protocol.Snapshot }

func (l lowered) Bound(i, j int) cmatrix.Cycle { return max(0, l.Snapshot.Bound(i, j)-1) }

// skewTrace flips the Arg of every uplink verdict in evs under
// DefectTraceSkew.
func (d Defect) skewTrace(evs []obs.Event) {
	if d != DefectTraceSkew {
		return
	}
	for i := range evs {
		if evs[i].Kind == obs.EvUplinkVerdict {
			evs[i].Arg ^= 1
		}
	}
}
