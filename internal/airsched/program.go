package airsched

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"broadcastcc/internal/bcast"
)

// Program is a complete broadcast program: the data-slot sequence of
// one major cycle, in which an object on a disk of speed s appears s
// times, and the (1,m) index configuration. Programs are immutable
// after Build.
type Program struct {
	layout bcast.Layout
	slots  []int
	indexM int
}

// disk is one spinning disk of the program: a set of objects broadcast
// speed times per major cycle.
type disk struct {
	objects []int
	speed   int
}

// Build constructs a multi-disk broadcast program over the layout's
// objects from per-object access weights:
//
//  1. Disk speeds are the powers of two 2^(D-1) … 1 (hot to cold), the
//     classic broadcast-disks geometry, which always satisfies the
//     chunked-interleave divisibility constraints.
//  2. Each object's ideal broadcast frequency follows the square-root
//     rule — spacing ∝ 1/√weight — scaled so the hottest object spins
//     at the fastest disk; the object lands on the disk whose speed is
//     nearest its ideal in log space.
//  3. Divisibility fixup: disk d (speed 2^(D-1-d)) splits into 2^d
//     chunks, so its size is rounded down to a multiple of 2^d by
//     promoting its hottest leftovers to the next faster disk — a
//     conservative move (objects only ever spin faster than ideal).
//  4. The disks are flattened by the chunked interleave (interleave).
//
// disks = 1 (or uniform weights) yields the paper's flat program.
// indexM ≥ 1 interleaves that many full index segments per major
// cycle; 0 broadcasts no index (clients listen continuously).
func Build(layout bcast.Layout, weights []float64, disks, indexM int) (*Program, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	n := layout.Objects
	if len(weights) != n {
		return nil, fmt.Errorf("airsched: %d weights for %d objects", len(weights), n)
	}
	if disks < 1 {
		return nil, fmt.Errorf("airsched: disk count %d must be >= 1", disks)
	}
	if indexM < 0 {
		return nil, fmt.Errorf("airsched: index segment count %d must be >= 0", indexM)
	}
	maxW := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("airsched: weight %v of object %d is not a finite non-negative number", w, i)
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW == 0 {
		return nil, fmt.Errorf("airsched: all %d weights are zero", n)
	}
	// Cap the disk count: every disk needs at least one chunk-sized set
	// of objects, and more disks than ld(n)+1 cannot all be non-empty
	// under power-of-two speeds.
	if disks > n {
		disks = n
	}

	return &Program{layout: layout, slots: interleave(assignDisks(hotToCold(weights), weights, disks)), indexM: indexM}, nil
}

// hotToCold orders the objects by descending weight; ties break toward
// lower ids so the partition is a pure function of the weights.
func hotToCold(weights []float64) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// interleave flattens disks (fastest first, as assignDisks returns
// them) into one major cycle by the classic chunked interleave: with S
// the fastest speed, the major cycle is S minor cycles; a disk of speed
// s splits into S/s equal chunks and minor cycle m carries chunk
// m mod (S/s) of every disk, hot to cold.
func interleave(disks []disk) []int {
	maxSpeed := disks[0].speed
	var slots []int
	for minor := 0; minor < maxSpeed; minor++ {
		for _, d := range disks {
			chunks := maxSpeed / d.speed
			size := len(d.objects) / chunks
			k := minor % chunks
			slots = append(slots, d.objects[k*size:(k+1)*size]...)
		}
	}
	return slots
}

// assignDisks partitions the hot-to-cold object order across up to
// disks power-of-two-speed disks, returning only non-empty disks,
// fastest first, with speeds normalized so the slowest is 1.
func assignDisks(order []int, weights []float64, disks int) []disk {
	n := len(order)
	if disks == 1 {
		return []disk{{objects: append([]int(nil), order...), speed: 1}}
	}
	maxSpeed := 1 << (disks - 1)
	maxW := weights[order[0]]

	// Square-root rule: ideal frequency ∝ √w, hottest pinned to the
	// fastest disk; each object rounds to the nearest power-of-two
	// speed in log space.
	sizes := make([]int, disks) // sizes[d]: disk d has speed 2^(disks-1-d)
	diskOf := make([]int, n)    // per position in order
	for pos, obj := range order {
		ideal := math.Sqrt(weights[obj]/maxW) * float64(maxSpeed)
		if ideal < 1 {
			ideal = 1
		}
		exp := int(math.Round(math.Log2(ideal)))
		if exp < 0 {
			exp = 0
		}
		if exp > disks-1 {
			exp = disks - 1
		}
		d := disks - 1 - exp // disk index, 0 = fastest
		// The order is hot-to-cold, so disk assignment must be
		// monotone; numeric rounding at ties could zig-zag otherwise.
		if pos > 0 && d < diskOf[pos-1] {
			d = diskOf[pos-1]
		}
		diskOf[pos] = d
		sizes[d]++
	}

	// Divisibility fixup, cold to hot: disk d needs size ≡ 0 mod 2^d.
	for d := disks - 1; d >= 1; d-- {
		chunks := 1 << d
		r := sizes[d] % chunks
		sizes[d] -= r
		sizes[d-1] += r
	}

	var out []disk
	at := 0
	for d := 0; d < disks; d++ {
		if sizes[d] == 0 {
			continue
		}
		out = append(out, disk{
			objects: append([]int(nil), order[at:at+sizes[d]]...),
			speed:   1 << (disks - 1 - d),
		})
		at += sizes[d]
	}
	// Normalize speeds so the slowest disk spins once per major cycle;
	// powers of two keep dividing each other after the shift.
	minSpeed := out[len(out)-1].speed
	if minSpeed > 1 {
		for i := range out {
			out[i].speed /= minSpeed
		}
	}
	return out
}

// Layout reports the per-slot broadcast layout.
func (p *Program) Layout() bcast.Layout { return p.layout }

// IndexM reports the number of (1,m) index segments per major cycle
// (0 = no air index).
func (p *Program) IndexM() int { return p.indexM }

// Slots returns a copy of the data-slot object sequence of one major
// cycle.
func (p *Program) Slots() []int { return append([]int(nil), p.slots...) }

// IndexSegmentBits models the air cost of one index segment: an
// offset entry per object plus a fixed header (cycle number, segment
// ordinal, next-index pointer). An offset entry is wide enough for any
// frame distance within a major cycle (data slots plus index
// segments). The wire codec's byte framing differs slightly; timing
// uses this bit-exact account.
func (p *Program) IndexSegmentBits() int64 {
	offsetBits := bits.Len(uint(len(p.slots)+p.indexM)) + 1
	return 64 + int64(p.layout.Objects)*int64(offsetBits)
}

// String summarizes the program: per disk, fastest first, its object
// count and speed (appearances per major cycle).
func (p *Program) String() string {
	speed := make([]int, p.layout.Objects)
	for _, obj := range p.slots {
		speed[obj]++
	}
	size := make([]int, slices.Max(speed)+1) // objects per speed
	for _, s := range speed {
		size[s]++
	}
	var disks []string
	for s := len(size) - 1; s >= 1; s-- {
		if size[s] > 0 {
			disks = append(disks, fmt.Sprintf("%d@%dx", size[s], s))
		}
	}
	return fmt.Sprintf("airsched: %d objects on %d disk(s) [%s], (1,%d) index",
		p.layout.Objects, len(disks), strings.Join(disks, " "), p.indexM)
}
