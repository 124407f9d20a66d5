package main

import (
	"math"
	"slices"
	"time"

	"broadcastcc/internal/stats"
)

var epoch = time.Now()

// now is the driver's monotonic clock, in nanoseconds since start-up.
func now() int64 { return int64(time.Since(epoch)) }

// Sample storage lives in the binary's zero-initialised data segment,
// not on the Go heap: the garbage collector paces itself on the live
// heap, so a few dozen MiB of harness buffers there would make
// collections rarer for the program under test and would show up in
// heap_live_mb. Untouched pages of these arrays cost nothing.
const seriesCap = 1 << 20

const (
	serCycle = iota
	serStep
	serCommit
	serReadTxn
	numSeries
)

var seriesStore [2][numSeries][seriesCap]uint32

// series collects durations (nanoseconds, clipped to ~4.29 s) without
// allocating. When the backing array fills it keeps every other sample
// and from then on records at twice the stride, so a median over it
// stays an even subsample of the whole run.
type series struct {
	buf    []uint32
	stride int
	skip   int
}

func (s *series) add(ns int64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	s.skip = s.stride - 1
	if len(s.buf) == cap(s.buf) {
		j := 0
		for i := 0; i < len(s.buf); i += 2 {
			s.buf[j] = s.buf[i]
			j++
		}
		s.buf = s.buf[:j]
		s.stride *= 2
		s.skip = s.stride - 1
	}
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s.buf = append(s.buf, uint32(ns))
}

// quantile sorts the samples in place and returns the q-quantile in
// nanoseconds (0 for an empty series), interpolating between closest
// ranks as stats.Percentile does.
func (s *series) quantile(q float64) float64 {
	if len(s.buf) == 0 {
		return 0
	}
	slices.Sort(s.buf)
	pos := q * float64(len(s.buf)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(s.buf[lo])*(1-frac) + float64(s.buf[hi])*frac
}

// reset empties the series for the next block of samples.
func (s *series) reset() { s.buf, s.stride, s.skip = s.buf[:0], 1, 0 }

// recorder is the untraced (bank 0) or traced (bank 1) set of series.
type recorder struct {
	s [numSeries]series
}

func newRecorder(bank int) *recorder {
	r := &recorder{}
	for i := range r.s {
		r.s[i] = series{buf: seriesStore[bank][i][:0], stride: 1}
	}
	return r
}

// quantileOf returns the q-quantile (0..1) of vs, 0 when vs is empty.
func quantileOf(vs []float64, q float64) float64 {
	v, err := stats.Percentile(vs, q*100)
	if err != nil {
		return 0
	}
	return v
}

func medianOf(vs []float64) float64 { return quantileOf(vs, 0.5) }
