// Package faultair injects reception faults into the broadcast "air":
// per-client frame loss and doze windows (whole missed cycles). The
// paper's whole premise is that mobile clients validate reads
// autonomously precisely because they doze and miss broadcast cycles;
// this package turns the perfect in-process medium (internal/bcast) and
// the TCP stream (internal/netcast) into the lossy air those clients
// actually live on, so the recovery path — count the cycle gap, judge
// the next read by the next cycle heard — can be exercised and
// measured.
//
// Every fault decision is a pure function of (Seed, client, cycle):
// there is no mutable generator state, so the same seed reproduces the
// identical per-client drop/doze trace no matter in what order — or
// from how many goroutines — the schedule is consulted. That property
// is what keeps the simulator's experiment tables byte-identical at any
// parallelism setting. The live Listener is a filter over the same
// schedule: of the cycles it hears it delivers exactly those Missed
// does not name, the definition the simulator and the conformance
// harness also use.
package faultair

import (
	"fmt"
	"strings"

	"broadcastcc/internal/cmatrix"
)

// Profile parameterizes the fault model. The zero value injects no
// faults at all (every frame is delivered).
type Profile struct {
	// Loss is the per-client per-cycle probability that the cycle's
	// frame is lost in transit (tuner briefly out of range, corrupted
	// frame discarded by the decoder).
	Loss float64
	// Doze is the per-cycle probability that a doze window *starts* at
	// that cycle: the client powers its receiver down and misses
	// DozeLen whole cycles. Windows may overlap, extending the doze.
	Doze float64
	// DozeLen is the length of each doze window in cycles. Defaults to
	// 1 when Doze > 0 and DozeLen is 0.
	DozeLen int
	// Seed selects the fault schedule. Two profiles that differ only in
	// Seed inject the same *rates* but different traces.
	Seed int64
	// Windows are scripted doze windows applied on top of the random
	// ones: client Client misses every cycle in [From, To] inclusive.
	// They make targeted scenarios (and regression tests) exactly
	// reproducible without searching for a seed.
	Windows []Window
}

// Window is one scripted doze window: client Client receives nothing
// during cycles From..To inclusive.
type Window struct {
	Client   int
	From, To cmatrix.Cycle
}

// Validate reports the first problem with the profile.
func (p Profile) Validate() error {
	switch {
	case p.Loss < 0 || p.Loss > 1:
		return fmt.Errorf("faultair: Loss = %v, need [0,1]", p.Loss)
	case p.Doze < 0 || p.Doze > 1:
		return fmt.Errorf("faultair: Doze = %v, need [0,1]", p.Doze)
	case p.DozeLen < 0:
		return fmt.Errorf("faultair: DozeLen = %d, need >= 0", p.DozeLen)
	}
	for _, w := range p.Windows {
		if w.To < w.From {
			return fmt.Errorf("faultair: window [%d,%d] for client %d is empty", w.From, w.To, w.Client)
		}
	}
	return nil
}

// Zero reports whether the profile injects no faults at all.
func (p Profile) Zero() bool {
	return p.Loss == 0 && p.Doze == 0 && len(p.Windows) == 0
}

// Schedule answers fault questions for a profile. It is immutable and
// safe for concurrent use; every answer is a deterministic function of
// (profile, client, cycle).
type Schedule struct {
	prof Profile
}

// NewSchedule builds the schedule for a profile, normalizing DozeLen.
// It panics on an invalid profile (Validate first when the profile
// comes from user input).
func NewSchedule(p Profile) *Schedule {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Doze > 0 && p.DozeLen == 0 {
		p.DozeLen = 1
	}
	return &Schedule{prof: p}
}

// Decision salts: each fault kind draws from its own independent
// hash stream so e.g. raising Loss never perturbs the doze trace.
const (
	saltLoss uint64 = iota + 1
	saltDozeStart
)

// mix is the pure-function PRNG behind every decision of both
// schedules: a splitmix64 finalization of (seed, client, index, salt),
// where the index is a cycle here and a packet index in PacketSchedule.
// Uniform, stateless, and independent across salts.
func mix(seed int64, client int, idx, salt uint64) uint64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [...]uint64{uint64(client) + 1, idx, salt} {
		x += v
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// unit maps a decision to [0, 1).
func (s *Schedule) unit(client int, cycle cmatrix.Cycle, salt uint64) float64 {
	return float64(mix(s.prof.Seed, client, uint64(cycle), salt)>>11) / (1 << 53)
}

// Dropped reports whether client's frame for the given cycle is lost in
// transit (independent of dozing).
func (s *Schedule) Dropped(client int, cycle cmatrix.Cycle) bool {
	return s.prof.Loss > 0 && s.unit(client, cycle, saltLoss) < s.prof.Loss
}

// dozeStarts reports whether a random doze window starts at the cycle.
func (s *Schedule) dozeStarts(client int, cycle cmatrix.Cycle) bool {
	return s.prof.Doze > 0 && cycle >= 1 && s.unit(client, cycle, saltDozeStart) < s.prof.Doze
}

// Dozing reports whether the client's receiver is powered down for the
// whole cycle — because a random doze window covering it started within
// the last DozeLen cycles, or a scripted window covers it.
func (s *Schedule) Dozing(client int, cycle cmatrix.Cycle) bool {
	for _, w := range s.prof.Windows {
		if w.Client == client && cycle >= w.From && cycle <= w.To {
			return true
		}
	}
	for k := 0; k < s.prof.DozeLen; k++ {
		if s.dozeStarts(client, cycle-cmatrix.Cycle(k)) {
			return true
		}
	}
	return false
}

// Missed reports whether the client receives nothing for the cycle:
// dozing through it or losing its frame.
func (s *Schedule) Missed(client int, cycle cmatrix.Cycle) bool {
	return s.Dozing(client, cycle) || s.Dropped(client, cycle)
}

// NextReceived reports the first cycle in [from, limit] the client
// actually receives — neither dozing through it nor losing its frame —
// and whether one exists within the bound. It is how a simulated tuner
// resolves "the next cycle this read can complete in" against the fault
// schedule.
func (s *Schedule) NextReceived(client int, from, limit cmatrix.Cycle) (cmatrix.Cycle, bool) {
	for c := from; c <= limit; c++ {
		if !s.Missed(client, c) {
			return c, true
		}
	}
	return 0, false
}

// Fate is the scheduled outcome for one (client, cycle) pair.
type Fate struct {
	Cycle   cmatrix.Cycle
	Dozing  bool
	Dropped bool
}

// Delivered reports whether the frame reaches the client at all.
func (f Fate) Delivered() bool { return !f.Dozing && !f.Dropped }

// Trace enumerates the client's fates for cycles from..to inclusive —
// the reproducible per-client drop/doze trace a seed pins down.
func (s *Schedule) Trace(client int, from, to cmatrix.Cycle) []Fate {
	var out []Fate
	for c := from; c <= to; c++ {
		out = append(out, Fate{Cycle: c, Dozing: s.Dozing(client, c), Dropped: s.Dropped(client, c)})
	}
	return out
}

// FormatTrace renders a trace compactly: one rune per cycle
// ('.' delivered, 'z' dozing, 'x' dropped).
func FormatTrace(fates []Fate) string {
	var b strings.Builder
	for _, f := range fates {
		switch {
		case f.Dozing:
			b.WriteByte('z')
		case f.Dropped:
			b.WriteByte('x')
		default:
			b.WriteByte('.')
		}
	}
	return b.String()
}
