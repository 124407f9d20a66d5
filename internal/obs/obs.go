// Package obs is the observability layer: a metrics registry whose hot
// paths (Counter.Add, Gauge.Set, Histogram.Observe) never allocate, and
// a cycle-clock event tracer (see trace.go) whose events are stamped
// with broadcast (cycle, frame) positions instead of wall time, so a
// trace from a deterministic simulation run is byte-identical at any
// parallelism and under the race detector.
//
// Registries are cheap enough to create per component; Snapshot()
// produces an immutable, mergeable copy, and Snapshot.Merge sums
// counters, gauges and equal-bounds histograms, so per-run registries
// from a parallel sweep fold into one aggregate without coordination.
//
// obs deliberately does not import cmatrix: callers pass cycles as
// int64 (cmatrix.Cycle's underlying type) to keep this package at the
// bottom of the dependency graph.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready
// to use; Add/Inc are single atomic ops and never allocate.
type Counter struct{ v atomic.Int64 }

// Add adds d (callers keep counters monotone; negative deltas are not
// rejected, but Merge assumes sums stay meaningful).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a last-write-wins int64 level (e.g. current subscriber
// count). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. bounds are strictly
// increasing inclusive upper bounds; an implicit +Inf bucket catches
// the rest. Observe is a linear scan over a handful of bounds plus one
// atomic add — no allocation, no locking.
//
// Buckets are fixed at construction so snapshots from different runs
// merge bucket-by-bucket; merging histograms with different bounds is a
// programmer error (Snapshot.Merge panics) rather than a silent
// re-binning.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
}

// NewHistogram builds a histogram with the given inclusive upper
// bounds, which must be non-empty and strictly increasing.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records v into its bucket.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Pow2Buckets returns n strictly increasing power-of-two bounds
// starting at 2^lo: [2^lo, 2^(lo+1), ...]. A convenient fixed bucket
// layout for latency- and size-like observations.
func Pow2Buckets(lo, n int) []int64 {
	if lo < 0 || n <= 0 || lo+n > 62 {
		panic("obs: bad Pow2Buckets range")
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(1) << (lo + i)
	}
	return out
}

// LinearBuckets returns n bounds start, start+width, ... — fixed-width
// buckets for small discrete quantities (commits per cycle, restarts).
func LinearBuckets(start, width int64, n int) []int64 {
	if width <= 0 || n <= 0 {
		panic("obs: bad LinearBuckets shape")
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*width
	}
	return out
}

// Registry is a named collection of counters, gauges and histograms.
// Lookup (Counter/Gauge/Histogram) takes a mutex and may allocate on
// first use; callers on hot paths resolve instruments once and keep the
// pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Update runs f under the registry's lock, so a Snapshot sees either
// none or all of the updates f makes: instruments that must agree in
// every scrape (a churn counter pair and the level gauge they move)
// change together. f must not call the registry's own methods. Lone
// hot-path updates never take the lock.
func (r *Registry) Update(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f()
}

// Histogram returns the named histogram, creating it with bounds on
// first use. Re-registering an existing name with different bounds
// panics: bucket layouts are part of the metric's identity.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
		return h
	}
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	for i, b := range bounds {
		if h.bounds[i] != b {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
	}
	return h
}

// HistogramSnapshot is an immutable histogram state.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last bucket is +Inf
	Sum    int64   `json:"sum"`
}

// Total returns the number of observations.
func (h HistogramSnapshot) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Quantile returns the [lo, hi] bucket range containing the q-quantile
// (0 < q <= 1) — with fixed buckets the exact value is unknowable, but
// it is guaranteed to lie in the returned closed interval. lo is
// math.MinInt64 for the first bucket and hi is math.MaxInt64 for the
// overflow bucket. An empty histogram returns (0, 0).
func (h HistogramSnapshot) Quantile(q float64) (lo, hi int64) {
	total := h.Total()
	if total == 0 {
		return 0, 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i == 0 {
				lo = math.MinInt64
			} else {
				lo = h.Bounds[i-1] + 1
			}
			if i == len(h.Bounds) {
				hi = math.MaxInt64
			} else {
				hi = h.Bounds[i]
			}
			return lo, hi
		}
	}
	// Unreachable: cum == total >= rank by construction.
	return 0, 0
}

// Snapshot is an immutable copy of a registry's state. Its JSON
// encoding is deterministic (encoding/json sorts map keys), so equal
// snapshots marshal to equal bytes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Safe to call
// concurrently with hot-path updates: each value is read atomically,
// and the updates of one Update call are seen all or not at all. Lone
// updates are seen one by one.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: map[string]int64{}}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	if len(r.gauges) > 0 {
		s.Gauges = map[string]int64{}
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = map[string]HistogramSnapshot{}
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Sum:    h.sum.Load(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// Merge folds other into a copy of s and returns it: counters and
// gauges sum, histograms with identical bounds sum bucket-by-bucket.
// Merging histograms under the same name with different bounds panics —
// bucket layout is part of the metric's identity, and keeping Merge
// total on equal layouts is what makes it associative and commutative.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{Counters: map[string]int64{}}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range other.Counters {
		out.Counters[k] += v
	}
	if len(s.Gauges) > 0 || len(other.Gauges) > 0 {
		out.Gauges = map[string]int64{}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range other.Gauges {
			out.Gauges[k] += v
		}
	}
	if len(s.Histograms) > 0 || len(other.Histograms) > 0 {
		out.Histograms = map[string]HistogramSnapshot{}
		for k, h := range s.Histograms {
			out.Histograms[k] = HistogramSnapshot{
				Bounds: append([]int64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
				Sum:    h.Sum,
			}
		}
		for k, h := range other.Histograms {
			prev, ok := out.Histograms[k]
			if !ok {
				out.Histograms[k] = HistogramSnapshot{
					Bounds: append([]int64(nil), h.Bounds...),
					Counts: append([]int64(nil), h.Counts...),
					Sum:    h.Sum,
				}
				continue
			}
			if !equalInt64s(prev.Bounds, h.Bounds) {
				panic(fmt.Sprintf("obs: merging histogram %q with different bounds", k))
			}
			for i := range prev.Counts {
				prev.Counts[i] += h.Counts[i]
			}
			prev.Sum += h.Sum
			out.Histograms[k] = prev
		}
	}
	return out
}

// Prefixed returns a copy of the snapshot with every metric name
// prefixed — the fleet's per-shard label scheme (shard2_server_commits
// is shard 2's server_commits). Prefixing before Merge keeps per-shard
// series distinct in one scrape while the unprefixed Merge of the same
// registries gives the fleet totals; both stay byte-deterministic
// because names are transformed, never invented.
func (s Snapshot) Prefixed(prefix string) Snapshot {
	out := Snapshot{Counters: map[string]int64{}}
	for k, v := range s.Counters {
		out.Counters[prefix+k] = v
	}
	if len(s.Gauges) > 0 {
		out.Gauges = map[string]int64{}
		for k, v := range s.Gauges {
			out.Gauges[prefix+k] = v
		}
	}
	if len(s.Histograms) > 0 {
		out.Histograms = map[string]HistogramSnapshot{}
		for k, h := range s.Histograms {
			out.Histograms[prefix+k] = HistogramSnapshot{
				Bounds: append([]int64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
				Sum:    h.Sum,
			}
		}
	}
	return out
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
