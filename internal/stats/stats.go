// Package stats provides the small statistical toolkit used by the
// simulation harness: running accumulators, Student-t confidence
// intervals, and simple batching helpers.
//
// The paper reports mean transaction response times with 95% confidence
// intervals whose widths are below 10% of the point estimates; Sample and
// ConfidenceInterval reproduce exactly that statistic.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations incrementally using Welford's method,
// which is numerically stable for the long response-time series produced
// by simulation runs.
type Sample struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// addAll records every observation in xs.
func (s *Sample) addAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N reports the number of observations recorded so far.
func (s *Sample) N() int { return s.n }

// Mean reports the arithmetic mean of the observations, or 0 when empty.
func (s *Sample) Mean() float64 { return s.mean }

// Min reports the smallest observation, or 0 when empty.
func (s *Sample) Min() float64 { return s.min }

// Max reports the largest observation, or 0 when empty.
func (s *Sample) Max() float64 { return s.max }

// Sum reports the sum of the observations.
func (s *Sample) Sum() float64 { return s.mean * float64(s.n) }

// Variance reports the unbiased sample variance (n-1 denominator).
// It is 0 for fewer than two observations.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr reports the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Merge folds the observations summarized by other into s, as if every
// observation added to other had been added to s directly.
func (s *Sample) Merge(other *Sample) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	total := n1 + n2
	s.mean += delta * n2 / total
	s.m2 += other.m2 + delta*delta*n1*n2/total
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Mean      float64 // point estimate
	HalfWidth float64 // half the interval width
	Level     float64 // confidence level, e.g. 0.95
}

// lo reports the lower bound of the interval.
func (iv Interval) lo() float64 { return iv.Mean - iv.HalfWidth }

// hi reports the upper bound of the interval.
func (iv Interval) hi() float64 { return iv.Mean + iv.HalfWidth }

// RelativeWidth reports the half-width as a fraction of the mean
// (the paper's "widths less than 10% of the point estimates" statistic).
// It is +Inf for a zero mean with a nonzero half-width.
func (iv Interval) RelativeWidth() float64 {
	if iv.Mean == 0 {
		if iv.HalfWidth == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(iv.HalfWidth / iv.Mean)
}

// String formats the interval as "mean ± halfwidth".
func (iv Interval) String() string {
	return fmt.Sprintf("%.4g ± %.3g", iv.Mean, iv.HalfWidth)
}

// ErrTooFewObservations is returned when a confidence interval is
// requested over fewer than two observations.
var ErrTooFewObservations = errors.New("stats: confidence interval needs at least 2 observations")

// ConfidenceInterval computes the Student-t confidence interval for the
// mean at the given level (e.g. 0.95).
func (s *Sample) ConfidenceInterval(level float64) (Interval, error) {
	if s.n < 2 {
		return Interval{}, ErrTooFewObservations
	}
	t := studentTQuantile(float64(s.n-1), 0.5+level/2)
	return Interval{Mean: s.mean, HalfWidth: t * s.StdErr(), Level: level}, nil
}

// studentTQuantile returns the p-quantile of the Student-t distribution
// with df degrees of freedom, via Cornish-Fisher style expansion of the
// normal quantile (Abramowitz & Stegun 26.7.5). Accurate to well under 1%
// for df >= 3, which is ample for reporting simulation CIs.
func studentTQuantile(df, p float64) float64 {
	z := normalQuantile(p)
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return z + g1/df + g2/(df*df) + g3/(df*df*df) + g4/(df*df*df*df)
}

// normalQuantile returns the p-quantile of the standard normal
// distribution using the Beasley-Springer-Moro rational approximation.
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p == 0.5 {
			return 0
		}
		return math.NaN()
	}
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// Percentile reports the q-th percentile (0 <= q <= 100) of xs using
// linear interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: percentile of empty slice")
	}
	if q < 0 || q > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Mean reports the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
