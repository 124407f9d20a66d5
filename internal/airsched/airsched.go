// Package airsched is the air-scheduling subsystem: it decides *which*
// objects occupy the broadcast air and *when clients need to listen*.
// The paper broadcasts a flat cycle — every object once, in id order,
// with a full control column after each — and a client stays tuned for
// up to a whole cycle to find one object. This package generalizes the
// air along two orthogonal axes, leaving the concurrency-control
// semantics of the protocols untouched:
//
//   - Multi-disk broadcast programs (Acharya et al.'s broadcast disks):
//     hot objects spin on fast disks and repeat every minor cycle, cold
//     objects rotate across the major cycle. Disk membership comes from
//     per-object access weights (ZipfWeights everywhere a program is
//     built) through the square-root rule (optimal spacing ∝
//     1/√frequency). The flat program is the degenerate one-disk
//     configuration. Build owns the whole program and the Timeline is
//     its only clock.
//
//   - A (1,m) air index (Imielinski, Viswanathan, Badrinath): the full
//     object→offset-to-next-occurrence index is interleaved m times per
//     major cycle, so a client probes one frame, dozes to the next
//     index segment, then dozes again to exactly the frame carrying its
//     object. Tuning time (frames actually listened, the battery cost)
//     decouples from access time (elapsed wait, the latency cost).
//
// Every appearance of an object within a major cycle carries the value
// and control column of the beginning of that major cycle, so the
// read-conditions of Theorems 1 and 2 apply verbatim with "cycle"
// meaning major cycle: a read of a mid-cycle re-broadcast validates
// identically to the cycle-start copy.
package airsched

import (
	"fmt"
	"math"
	"sort"
)

// ZipfWeights returns the zipf access law over n objects with skew
// theta: object i is accessed proportionally to 1/(i+1)^theta, object 0
// hottest. theta = 0 is the paper's uniform access.
func ZipfWeights(n int, theta float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -theta)
	}
	return w
}

// ZipfPicker draws object ids under the zipf law via inverse-CDF lookup
// — usable with any rand source producing uniform [0,1) variates, and
// deterministic for a deterministic source. (math/rand's Zipf requires
// skew > 1; broadcast-workload skews like θ=0.95 live below that.)
type ZipfPicker struct {
	cdf []float64
}

// NewZipfPicker precomputes the cumulative distribution for n objects
// at skew theta.
func NewZipfPicker(n int, theta float64) *ZipfPicker {
	w := ZipfWeights(n, theta)
	cdf := make([]float64, n)
	sum := 0.0
	for i, x := range w {
		sum += x
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfPicker{cdf: cdf}
}

// Pick maps a uniform variate u ∈ [0,1) to an object id.
func (z *ZipfPicker) Pick(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// EWMA is an online access-frequency estimator fed by an observed
// access stream (the server's write heat, which drives grouped
// regrouping; no broadcast program is built from it): each observed
// batch decays all weights by (1-Alpha) and credits the accessed
// objects, so the estimate tracks a drifting workload. The decay is
// O(batch) amortized via a running scale factor, not O(n) per
// observation.
type EWMA struct {
	alpha float64
	w     []float64
	scale float64
}

// NewEWMA builds an estimator over n objects with smoothing factor
// alpha ∈ (0,1); higher alpha forgets faster. Weights start uniform so
// a cold estimator yields the flat program.
func NewEWMA(n int, alpha float64) (*EWMA, error) {
	if n < 1 {
		return nil, fmt.Errorf("airsched: EWMA needs at least one object, got %d", n)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("airsched: EWMA alpha %v out of (0,1)", alpha)
	}
	e := &EWMA{alpha: alpha, w: make([]float64, n), scale: 1}
	for i := range e.w {
		e.w[i] = 1
	}
	return e, nil
}

// Observe credits one access batch (e.g. a committed transaction's
// write set). Out-of-range ids are ignored.
func (e *EWMA) Observe(objs []int) {
	if len(objs) == 0 {
		return
	}
	// Decaying every weight by (1-alpha) is the same as growing the
	// credit per hit by 1/(1-alpha): track the growth in scale and fold
	// it back in only when it threatens overflow.
	e.scale /= 1 - e.alpha
	if e.scale > 1e12 {
		for i := range e.w {
			e.w[i] /= e.scale
		}
		e.scale = 1
	}
	for _, obj := range objs {
		if obj >= 0 && obj < len(e.w) {
			e.w[obj] += e.alpha * e.scale
		}
	}
}

// Weights returns the current (scale-normalized) estimate, one weight
// per object.
func (e *EWMA) Weights() []float64 {
	out := make([]float64, len(e.w))
	for i, x := range e.w {
		out[i] = x / e.scale
	}
	return out
}
