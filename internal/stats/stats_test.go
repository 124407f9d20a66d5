package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatalf("zero Sample should report zeros, got n=%d mean=%v var=%v", s.N(), s.Mean(), s.Variance())
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s.addAll(xs)
	if s.N() != len(xs) {
		t.Fatalf("N = %d, want %d", s.N(), len(xs))
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Unbiased variance of this classic dataset is 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if !almostEqual(s.Sum(), 40, 1e-12) {
		t.Errorf("Sum = %v, want 40", s.Sum())
	}
}

func TestSampleSingleObservation(t *testing.T) {
	var s Sample
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single observation stats wrong: %+v", s)
	}
	if s.Variance() != 0 || s.StdDev() != 0 {
		t.Errorf("variance of single observation should be 0")
	}
	if _, err := s.ConfidenceInterval(0.95); err == nil {
		t.Errorf("ConfidenceInterval on n=1 should fail")
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var all, a, b Sample
		n1, n2 := rng.Intn(20), 1+rng.Intn(20)
		for i := 0; i < n1; i++ {
			x := rng.NormFloat64()*10 + 100
			all.Add(x)
			a.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := rng.NormFloat64()*10 + 100
			all.Add(x)
			b.Add(x)
		}
		a.Merge(&b)
		if a.N() != all.N() {
			t.Fatalf("merged N = %d, want %d", a.N(), all.N())
		}
		if !almostEqual(a.Mean(), all.Mean(), 1e-9) {
			t.Fatalf("merged mean %v != sequential mean %v", a.Mean(), all.Mean())
		}
		if !almostEqual(a.Variance(), all.Variance(), 1e-9) {
			t.Fatalf("merged var %v != sequential var %v", a.Variance(), all.Variance())
		}
		if a.Min() != all.Min() || a.Max() != all.Max() {
			t.Fatalf("merged min/max mismatch")
		}
	}
}

func TestMergeEmptyCases(t *testing.T) {
	var a, b Sample
	a.Merge(&b) // both empty: no panic
	if a.N() != 0 {
		t.Fatal("merging empties should stay empty")
	}
	b.Add(5)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatalf("merge into empty should copy, got %+v", a)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.95, 1.644854},
		{0.995, 2.575829},
		{0.999, 3.090232},
	}
	for _, c := range cases {
		got := normalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestStudentTQuantile(t *testing.T) {
	// Reference values from standard t tables (two-sided 95% -> p = 0.975).
	cases := []struct{ df, want float64 }{
		{5, 2.571},
		{10, 2.228},
		{30, 2.042},
		{100, 1.984},
		{499, 1.965},
	}
	for _, c := range cases {
		got := studentTQuantile(c.df, 0.975)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("studentTQuantile(df=%v) = %v, want %v", c.df, got, c.want)
		}
	}
}

func TestConfidenceIntervalCoversTrueMean(t *testing.T) {
	// With many observations from N(50, 4), the 95% CI should be tight
	// around 50 and include it.
	rng := rand.New(rand.NewSource(11))
	var s Sample
	for i := 0; i < 5000; i++ {
		s.Add(rng.NormFloat64()*2 + 50)
	}
	iv, err := s.ConfidenceInterval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.lo() > 50 || iv.hi() < 50 {
		t.Errorf("CI %v does not cover true mean 50", iv)
	}
	if iv.RelativeWidth() > 0.01 {
		t.Errorf("CI relative width %v too wide for n=5000", iv.RelativeWidth())
	}
}

func TestIntervalAccessors(t *testing.T) {
	iv := Interval{Mean: 10, HalfWidth: 2, Level: 0.95}
	if iv.lo() != 8 || iv.hi() != 12 {
		t.Errorf("lo/hi = %v/%v, want 8/12", iv.lo(), iv.hi())
	}
	if iv.RelativeWidth() != 0.2 {
		t.Errorf("RelativeWidth = %v, want 0.2", iv.RelativeWidth())
	}
	zero := Interval{}
	if zero.RelativeWidth() != 0 {
		t.Errorf("zero interval relative width should be 0")
	}
	inf := Interval{Mean: 0, HalfWidth: 1}
	if !math.IsInf(inf.RelativeWidth(), 1) {
		t.Errorf("zero-mean nonzero-width relative width should be +Inf")
	}
	if iv.String() == "" {
		t.Errorf("String should be nonempty")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	} {
		got, err := Percentile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile of empty slice should fail")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("negative percentile should fail")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("percentile > 100 should fail")
	}
	one, err := Percentile([]float64{42}, 73)
	if err != nil || one != 42 {
		t.Errorf("percentile of singleton = %v, %v; want 42, nil", one, err)
	}
	// Percentile must not reorder its input.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean([1 2 3]) should be 2")
	}
}

// Property: Sample.Mean/Variance agree with direct two-pass computation.
func TestQuickSampleMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Constrain magnitude to keep two-pass reference numerically sane.
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) < 2 {
			return true
		}
		var s Sample
		s.addAll(xs)
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		return almostEqual(s.Mean(), mean, 1e-9) && almostEqual(s.Variance(), variance, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
