package faultair

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"broadcastcc/internal/cmatrix"
)

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{Loss: -0.1},
		{Loss: 1.5},
		{Doze: 2},
		{DozeLen: -1},
		{Windows: []Window{{Client: 0, From: 5, To: 4}}},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
	good := []Profile{
		{},
		{Loss: 1},
		{Loss: 0.3, Doze: 0.1, DozeLen: 4, Seed: 9},
		{Windows: []Window{{Client: 1, From: 2, To: 2}}},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", p, err)
		}
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	s := NewSchedule(Profile{Seed: 123})
	for client := 0; client < 3; client++ {
		for c := cmatrix.Cycle(1); c <= 200; c++ {
			f := Fate{Cycle: c, Dozing: s.Dozing(client, c), Dropped: s.Dropped(client, c)}
			if !f.Delivered() {
				t.Fatalf("zero profile produced fault at client=%d cycle=%d: %+v", client, c, f)
			}
		}
	}
}

// TestScheduleDeterministic: the trace is a pure function of
// (seed, client, cycle) — identical across schedule instances, query
// orders, and concurrent queriers.
func TestScheduleDeterministic(t *testing.T) {
	p := Profile{Loss: 0.2, Doze: 0.05, DozeLen: 3, Seed: 42}
	a, b := NewSchedule(p), NewSchedule(p)
	ta := a.Trace(1, 1, 400)
	// Query b backwards first to show order independence.
	for c := cmatrix.Cycle(400); c >= 1; c-- {
		b.Missed(1, c)
	}
	tb := b.Trace(1, 1, 400)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("traces differ:\n%s\n%s", FormatTrace(ta), FormatTrace(tb))
	}

	// Concurrent queries agree with the sequential trace.
	var wg sync.WaitGroup
	got := make([][]Fate, 8)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = a.Trace(1, 1, 400)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], ta) {
			t.Fatalf("concurrent trace %d diverged", w)
		}
	}
}

func TestSeedsAndClientsDecorrelate(t *testing.T) {
	p := Profile{Loss: 0.3, Seed: 1}
	q := p
	q.Seed = 2
	s1, s2 := NewSchedule(p), NewSchedule(q)
	same := 0
	const n = 2000
	for c := cmatrix.Cycle(1); c <= n; c++ {
		if s1.Dropped(0, c) == s2.Dropped(0, c) {
			same++
		}
		if s1.Dropped(0, c) != s1.Dropped(0, c) {
			t.Fatal("unstable decision")
		}
	}
	// Agreement should be near 0.3² + 0.7² = 0.58, certainly not 1.
	if same == n {
		t.Fatal("different seeds produced identical drop traces")
	}
	// Distinct clients under one seed must also diverge.
	same = 0
	for c := cmatrix.Cycle(1); c <= n; c++ {
		if s1.Dropped(0, c) == s1.Dropped(1, c) {
			same++
		}
	}
	if same == n {
		t.Fatal("different clients share a drop trace")
	}
}

func TestLossRateConverges(t *testing.T) {
	for _, loss := range []float64{0.1, 0.5, 0.9} {
		s := NewSchedule(Profile{Loss: loss, Seed: 7})
		drops := 0
		const n = 20000
		for c := cmatrix.Cycle(1); c <= n; c++ {
			if s.Dropped(0, c) {
				drops++
			}
		}
		got := float64(drops) / n
		if math.Abs(got-loss) > 0.02 {
			t.Errorf("Loss=%v: observed drop rate %v", loss, got)
		}
	}
}

func TestDozeWindowsSpanDozeLen(t *testing.T) {
	s := NewSchedule(Profile{Doze: 0.05, DozeLen: 4, Seed: 11})
	// Every random doze start must imply DozeLen consecutive dozing
	// cycles.
	for c := cmatrix.Cycle(1); c <= 1000; c++ {
		if s.dozeStarts(0, c) {
			for k := cmatrix.Cycle(0); k < 4; k++ {
				if !s.Dozing(0, c+k) {
					t.Fatalf("doze starting at %d does not cover cycle %d", c, c+k)
				}
			}
		}
	}
}

func TestScriptedWindows(t *testing.T) {
	s := NewSchedule(Profile{Windows: []Window{
		{Client: 0, From: 3, To: 5},
		{Client: 2, From: 10, To: 10},
	}})
	for c := cmatrix.Cycle(1); c <= 12; c++ {
		want := c >= 3 && c <= 5
		if s.Dozing(0, c) != want {
			t.Errorf("client 0 cycle %d: Dozing = %v, want %v", c, s.Dozing(0, c), want)
		}
		if s.Dozing(1, c) {
			t.Errorf("client 1 cycle %d: unexpectedly dozing", c)
		}
	}
	if !s.Dozing(2, 10) || s.Dozing(2, 11) {
		t.Error("client 2 window [10,10] wrong")
	}
	if !s.Missed(0, 4) {
		t.Error("Missed must include scripted dozes")
	}
}

func TestFormatTrace(t *testing.T) {
	fates := []Fate{
		{Cycle: 1},
		{Cycle: 2, Dozing: true},
		{Cycle: 3, Dropped: true},
	}
	if got, want := FormatTrace(fates), ".zx"; got != want {
		t.Errorf("FormatTrace = %q, want %q", got, want)
	}
}
