package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("commits")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("commits") != c {
		t.Fatal("Counter lookup is not idempotent")
	}
	g := r.Gauge("subs")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	snap := r.Snapshot()
	if snap.Counters["commits"] != 5 || snap.Gauges["subs"] != 5 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	r := NewRegistry()
	// Exercise registration through the registry too.
	if rh := r.Histogram("h", []int64{1, 2}); rh == nil {
		t.Fatal("nil histogram")
	}
	if rh2 := r.Histogram("h", []int64{1, 2}); rh2 != r.Histogram("h", []int64{1, 2}) {
		t.Fatal("Histogram lookup is not idempotent")
	}

	var counts []int64
	for i := range h.counts {
		counts = append(counts, h.counts[i].Load())
	}
	// Buckets: ≤1, ≤2, ≤4, ≤8, +Inf
	want := []int64{2, 1, 1, 1, 2}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("bucket counts = %v, want %v", counts, want)
	}
	if got := h.sum.Load(); got != 120 {
		t.Fatalf("sum = %d, want 120", got)
	}
}

func TestHistogramMismatchedBoundsPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []int64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different bounds did not panic")
		}
	}()
	r.Histogram("h", []int64{1, 3})
}

func TestQuantileBounds(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	samples := []int64{3, 7, 12, 15, 18, 25, 33, 50, 60, 70}
	for _, v := range samples {
		h.Observe(v)
	}
	r := NewRegistry()
	_ = r // quiet
	snap := HistogramSnapshot{Bounds: []int64{10, 20, 40}, Counts: []int64{2, 3, 2, 3}, Sum: 293}

	// Property: for every q, the exact quantile of the sample set lies
	// inside the reported [lo, hi] interval.
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		lo, hi := snap.Quantile(q)
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1] // samples already sorted
		if exact < lo || exact > hi {
			t.Fatalf("q=%g: exact %d outside [%d, %d]", q, exact, lo, hi)
		}
	}

	if lo, hi := (HistogramSnapshot{Bounds: []int64{1}, Counts: []int64{0, 0}}).Quantile(0.5); lo != 0 || hi != 0 {
		t.Fatalf("empty quantile = (%d, %d), want (0, 0)", lo, hi)
	}
	// Values below the first bound land in a bucket whose lower edge
	// is -inf; above the last bound, upper edge is +inf.
	one := HistogramSnapshot{Bounds: []int64{5}, Counts: []int64{1, 1}}
	if lo, _ := one.Quantile(0.4); lo != math.MinInt64 {
		t.Fatalf("first-bucket lo = %d, want MinInt64", lo)
	}
	if _, hi := one.Quantile(1.0); hi != math.MaxInt64 {
		t.Fatalf("overflow-bucket hi = %d, want MaxInt64", hi)
	}
}

// randomSnapshot builds an arbitrary snapshot from rng, using a shared
// histogram bucket layout so merges are well-defined.
func randomSnapshot(rng *rand.Rand) Snapshot {
	names := []string{"a", "b", "c", "d"}
	s := Snapshot{Counters: map[string]int64{}}
	for _, n := range names[:1+rng.Intn(3)] {
		s.Counters[n] = int64(rng.Intn(1000))
	}
	if rng.Intn(2) == 0 {
		s.Gauges = map[string]int64{"g": int64(rng.Intn(100) - 50)}
	}
	if rng.Intn(2) == 0 {
		h := HistogramSnapshot{Bounds: []int64{4, 16, 64}, Counts: make([]int64, 4)}
		for i := range h.Counts {
			h.Counts[i] = int64(rng.Intn(50))
			h.Sum += h.Counts[i] * int64(i)
		}
		s.Histograms = map[string]HistogramSnapshot{"h": h}
	}
	return s
}

func snapshotJSON(t *testing.T, s Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a, b, c := randomSnapshot(rng), randomSnapshot(rng), randomSnapshot(rng)
		left := a.Merge(b).Merge(c)
		right := a.Merge(b.Merge(c))
		if got, want := snapshotJSON(t, left), snapshotJSON(t, right); got != want {
			t.Fatalf("merge not associative:\n(a·b)·c = %s\na·(b·c) = %s", got, want)
		}
		ab, ba := a.Merge(b), b.Merge(a)
		if got, want := snapshotJSON(t, ab), snapshotJSON(t, ba); got != want {
			t.Fatalf("merge not commutative:\na·b = %s\nb·a = %s", got, want)
		}
	}
}

func TestMergeMismatchedHistogramPanics(t *testing.T) {
	a := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistogramSnapshot{
		"h": {Bounds: []int64{1, 2}, Counts: []int64{0, 0, 0}},
	}}
	b := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistogramSnapshot{
		"h": {Bounds: []int64{1, 3}, Counts: []int64{0, 0, 0}},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched histogram bounds did not panic")
		}
	}()
	a.Merge(b)
}

// TestConcurrentIncrements hammers one counter and one histogram from
// many goroutines; run under -race this is the registry's data-race
// proof, and the totals prove no increment is lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			h := r.Histogram("lat", []int64{8, 64, 512})
			g := r.Gauge("level")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 1000))
				g.Add(1)
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["hits"]; got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Histograms["lat"].Total(); got != workers*perWorker {
		t.Fatalf("histogram total = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Gauges["level"]; got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
}

// TestHotPathAllocs is the acceptance check that instrumentation is
// free on hot paths: Counter.Add, Gauge.Set, Histogram.Observe and
// Tracer.Emit must not allocate.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", Pow2Buckets(0, 10))
	tr := NewTracer(64)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(9) }},
		{"Histogram.Observe", func() { h.Observe(137) }},
		{"Tracer.Emit", func() { tr.Emit(EvReadValidate, 2, 10, 3, 7) }},
		{"Tracer.Emit(nil)", func() { (*Tracer)(nil).Emit(EvReadAbort, 0, 0, 0, 0) }},
	}
	for _, chk := range checks {
		if allocs := testing.AllocsPerRun(1000, chk.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", chk.name, allocs)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	if got, want := Pow2Buckets(2, 3), []int64{4, 8, 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Pow2Buckets = %v, want %v", got, want)
	}
	if got, want := LinearBuckets(1, 2, 3), []int64{1, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LinearBuckets = %v, want %v", got, want)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	r.Gauge("m").Set(3)
	r.Histogram("h", []int64{1, 2}).Observe(1)
	a := snapshotJSON(t, r.Snapshot())
	b := snapshotJSON(t, r.Snapshot())
	if a != b {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", a, b)
	}
}
