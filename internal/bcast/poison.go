//go:build framepoison

package bcast

import "reflect"

// Poisoned reports whether this build poisons released frames: with the
// framepoison build tag, a frame whose last holder lets go is filled
// with 0xA5 before it becomes the spare, and its cycle's number set below
// 1, its Values nil and its View zeroed, so a read through a stale alias
// shows up as a wrong value, a changed verdict or a panic instead of
// passing on yesterday's bytes or the next cycle's header.
const Poisoned = true

func poison(f *Frame) {
	b := f.Data[:cap(f.Data)]
	for i := range b {
		b[i] = 0xA5
	}
	if v := reflect.ValueOf(f.Cycle.View); v.Kind() == reflect.Pointer && !v.IsNil() {
		v.Elem().SetZero()
	}
	f.Cycle.Number, f.Cycle.Values = -0x5A5A5A5A5A5A5A5B, nil
}
