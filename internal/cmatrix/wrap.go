package cmatrix

import "fmt"

// Codec encodes cycle numbers into fixed-width wrapped timestamps, the
// paper's "modulo max_cycles + 1 arithmetic": with TS bits per entry,
// cycle numbers are transmitted modulo 2^TS, and clients recover exact
// values as long as no transaction spans more than max_cycles = 2^TS - 1
// broadcast cycles.
type Codec struct {
	Bits int // timestamp width in bits, in [1, 32]
}

// Mod reports the wrap modulus 2^Bits.
func (c Codec) Mod() Cycle {
	if c.Bits < 1 || c.Bits > 32 {
		panic(fmt.Sprintf("cmatrix: codec bits %d out of range [1,32]", c.Bits))
	}
	return Cycle(1) << c.Bits
}

// Encode wraps a cycle number to its Bits-wide representation.
func (c Codec) Encode(x Cycle) uint32 {
	if x < 0 {
		panic(fmt.Sprintf("cmatrix: cannot encode negative cycle %d", x))
	}
	return uint32(x & (c.Mod() - 1))
}

// Decode recovers the full cycle number from a wrapped timestamp, given
// the current cycle cur: the result is the largest cycle <= cur that is
// congruent to raw modulo 2^Bits. Exact whenever cur - original <
// 2^Bits.
func (c Codec) Decode(raw uint32, cur Cycle) Cycle {
	mod := c.Mod()
	if Cycle(raw) >= mod {
		panic(fmt.Sprintf("cmatrix: raw timestamp %d out of range for %d bits", raw, c.Bits))
	}
	if cur < 0 {
		panic(fmt.Sprintf("cmatrix: negative current cycle %d", cur))
	}
	diff := (cur - Cycle(raw)) % mod
	if diff < 0 {
		diff += mod
	}
	return cur - diff
}
