//go:build !framepoison

package bcast

// Poisoned reports whether this build poisons released frames (the
// framepoison build tag; see poison.go).
const Poisoned = false

func poison(*Frame) {}
