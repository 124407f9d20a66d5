// Package bcast models the broadcast disk (Section 2.1): the physical
// layout of a broadcast cycle — every object followed by its control
// information — with all timing in bit-units (the time to broadcast one
// bit, the paper's unit of time), and the live in-process medium that
// fans completed cycles out to subscribed clients. It owns no broadcast
// program: multi-disk programs and the (1,m) air index are
// internal/airsched's, and Layout.NextReady, the flat cycle's clock, is
// the reference their timeline is checked against.
package bcast

import (
	"fmt"

	"broadcastcc/internal/protocol"
)

// ControlKind selects what control information accompanies each object
// on the air.
type ControlKind int

// Control information layouts.
const (
	// ControlNone broadcasts no control information (the ideal
	// F-Matrix-No baseline).
	ControlNone ControlKind = iota
	// ControlVector broadcasts one timestamp per object (R-Matrix and
	// Datacycle).
	ControlVector
	// ControlMatrix broadcasts the full column of the C matrix after
	// each object (F-Matrix).
	ControlMatrix
	// ControlGrouped broadcasts one row of the n×g grouped matrix after
	// each object.
	ControlGrouped
)

// String names the control layout.
func (k ControlKind) String() string {
	switch k {
	case ControlNone:
		return "none"
	case ControlVector:
		return "vector"
	case ControlMatrix:
		return "matrix"
	case ControlGrouped:
		return "grouped"
	default:
		return fmt.Sprintf("ControlKind(%d)", int(k))
	}
}

// ControlKindFor maps an algorithm to the control information it
// broadcasts.
func ControlKindFor(alg protocol.Algorithm) ControlKind {
	switch alg {
	case protocol.FMatrix:
		return ControlMatrix
	case protocol.FMatrixNo:
		return ControlNone
	case protocol.Grouped:
		return ControlGrouped
	case protocol.Datacycle, protocol.RMatrix:
		return ControlVector
	default:
		panic(fmt.Sprintf("bcast: no layout for algorithm %v", alg))
	}
}

// Layout describes one broadcast cycle's physical structure.
type Layout struct {
	Objects       int         // n, number of objects broadcast per cycle
	ObjectBits    int64       // size of each object in bits
	TimestampBits int         // TS, bits per control timestamp
	Control       ControlKind // what control info follows each object
	Groups        int         // g, for ControlGrouped
}

// LayoutFor builds the layout an algorithm uses: objects of objectBits
// bits, TS-bit timestamps, and groups groups for the grouped protocol
// (ignored otherwise).
func LayoutFor(alg protocol.Algorithm, objects int, objectBits int64, tsBits, groups int) Layout {
	return Layout{
		Objects:       objects,
		ObjectBits:    objectBits,
		TimestampBits: tsBits,
		Control:       ControlKindFor(alg),
		Groups:        groups,
	}
}

// Validate reports whether the layout is internally consistent.
func (l Layout) Validate() error {
	if l.Objects <= 0 {
		return fmt.Errorf("bcast: layout needs at least one object, got %d", l.Objects)
	}
	if l.ObjectBits <= 0 {
		return fmt.Errorf("bcast: object size %d bits must be positive", l.ObjectBits)
	}
	if l.Control != ControlNone && (l.TimestampBits < 1 || l.TimestampBits > 32) {
		return fmt.Errorf("bcast: timestamp size %d bits out of range [1,32]", l.TimestampBits)
	}
	if l.Control == ControlGrouped && (l.Groups < 1 || l.Groups > l.Objects) {
		return fmt.Errorf("bcast: group count %d out of range [1,%d]", l.Groups, l.Objects)
	}
	return nil
}

// ControlBitsPerObject reports the control information broadcast after
// each object: n·TS for the full matrix column, g·TS for a grouped row,
// TS for the vector entry, 0 for none.
func (l Layout) ControlBitsPerObject() int64 {
	switch l.Control {
	case ControlMatrix:
		return int64(l.Objects) * int64(l.TimestampBits)
	case ControlGrouped:
		return int64(l.Groups) * int64(l.TimestampBits)
	case ControlVector:
		return int64(l.TimestampBits)
	default:
		return 0
	}
}

// SlotBits reports the width of one object slot: the object plus its
// control information.
func (l Layout) SlotBits() int64 { return l.ObjectBits + l.ControlBitsPerObject() }

// CycleBits reports the total length of one broadcast cycle in
// bit-units.
func (l Layout) CycleBits() int64 { return int64(l.Objects) * l.SlotBits() }

// ObjectReadyOffset reports when, relative to the start of a cycle,
// object j and its control information have been fully received — the
// earliest instant a client can read it.
func (l Layout) ObjectReadyOffset(j int) int64 {
	if j < 0 || j >= l.Objects {
		panic(fmt.Sprintf("bcast: object %d out of range [0,%d)", j, l.Objects))
	}
	return int64(j+1) * l.SlotBits()
}

// NextReady reports the earliest absolute time ≥ t at which object j is
// fully received on the paper's flat cycle, with the 1-based number of
// the cycle that carries it (cycle 1 starts at time 0). An exact cycle
// boundary already belongs to the next cycle. This is the reference
// clock the airsched timeline is checked against.
func (l Layout) NextReady(t float64, j int) (float64, int64) {
	major := l.CycleBits()
	cycle := int64(0)
	if t > 0 {
		cycle = int64(t) / major
	}
	off := float64(l.ObjectReadyOffset(j))
	if off >= t-float64(cycle)*float64(major) {
		if ready := float64(cycle)*float64(major) + off; ready >= t {
			return ready, cycle + 1
		}
	}
	return float64(cycle+1)*float64(major) + off, cycle + 2
}

// ControlOverhead reports the fraction of cycle bandwidth spent on
// control information — the paper's Section 4.1 overhead statistic
// (≈23% for F-Matrix at the default parameters, ≈0.1% for R-Matrix and
// Datacycle).
func (l Layout) ControlOverhead() float64 {
	return float64(l.ControlBitsPerObject()) / float64(l.SlotBits())
}
