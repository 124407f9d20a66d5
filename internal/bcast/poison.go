//go:build framepoison

package bcast

// Poisoned reports whether this build poisons released frames: with the
// framepoison build tag, a frame whose last holder lets go is filled
// with 0xA5 before it becomes the spare, so a read through a stale alias
// shows up as a wrong value or a changed verdict instead of passing on
// yesterday's bytes.
const Poisoned = true

func poison(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}
