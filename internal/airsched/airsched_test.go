package airsched

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/protocol"
)

func testLayout(n int) bcast.Layout {
	return bcast.Layout{Objects: n, ObjectBits: 8000, TimestampBits: 16, Control: bcast.ControlMatrix}
}

// appearances counts each object's data slots per major cycle: its
// disk's speed.
func appearances(p *Program) []int {
	c := make([]int, p.Layout().Objects)
	for _, obj := range p.Slots() {
		c[obj]++
	}
	return c
}

func TestZipfWeightsShape(t *testing.T) {
	w := ZipfWeights(10, 0.95)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Fatalf("zipf weights not strictly decreasing at %d: %v >= %v", i, w[i], w[i-1])
		}
	}
	flat := ZipfWeights(5, 0)
	for _, x := range flat {
		if x != 1 {
			t.Fatalf("theta=0 should be uniform, got %v", flat)
		}
	}
}

func TestZipfPickerDistribution(t *testing.T) {
	const n, draws = 50, 200000
	p := NewZipfPicker(n, 0.95)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[p.Pick(rng.Float64())]++
	}
	// Hottest object must dominate the coldest by roughly n^0.95.
	if counts[0] < 10*counts[n-1] {
		t.Fatalf("skew too weak: hot=%d cold=%d", counts[0], counts[n-1])
	}
	// Empirical frequency of object 0 vs its analytic probability.
	w := ZipfWeights(n, 0.95)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	want := w[0] / sum
	got := float64(counts[0]) / draws
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("object 0 frequency %v, want ~%v", got, want)
	}
	// Boundary variates stay in range.
	if p.Pick(0) != 0 {
		t.Fatalf("Pick(0) = %d, want 0", p.Pick(0))
	}
	if got := p.Pick(math.Nextafter(1, 0)); got != n-1 {
		t.Fatalf("Pick(1-eps) = %d, want %d", got, n-1)
	}
}

func TestEWMATracksDrift(t *testing.T) {
	e, err := NewEWMA(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Cold estimator: uniform.
	w := e.Weights()
	for _, x := range w {
		if x != w[0] {
			t.Fatalf("cold EWMA not uniform: %v", w)
		}
	}
	for i := 0; i < 200; i++ {
		e.Observe([]int{0, 0, 1})
	}
	w = e.Weights()
	if !(w[0] > w[1] && w[1] > w[2]) {
		t.Fatalf("EWMA did not learn 0>1>rest: %v", w)
	}
	// Drift: stop touching 0, hammer 3.
	for i := 0; i < 400; i++ {
		e.Observe([]int{3})
	}
	w = e.Weights()
	if w[3] <= w[0] {
		t.Fatalf("EWMA did not track drift to object 3: %v", w)
	}
	// Out-of-range ids are ignored: the batch only decays every weight.
	e.Observe([]int{-1, 99})
	for i, x := range e.Weights() {
		if want := w[i] * 0.9; math.Abs(x-want) > 1e-9*want {
			t.Fatalf("out-of-range batch moved weight %d: %v, want %v", i, x, want)
		}
	}
}

func TestEWMAScaleRenormalization(t *testing.T) {
	e, err := NewEWMA(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 0.5 halves the scale base each step: scale doubles per Observe,
	// crossing 1e12 after ~40 observations. Weights must stay finite and
	// ordered.
	for i := 0; i < 200; i++ {
		e.Observe([]int{0})
	}
	w := e.Weights()
	if math.IsInf(w[0], 0) || math.IsNaN(w[0]) {
		t.Fatalf("weight overflowed: %v", w)
	}
	if w[0] <= w[1] {
		t.Fatalf("hammered object not hottest: %v", w)
	}
}

func TestEWMAValidation(t *testing.T) {
	if _, err := NewEWMA(0, 0.5); err == nil {
		t.Fatal("n=0 accepted")
	}
	for _, a := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewEWMA(3, a); err == nil {
			t.Fatalf("alpha=%v accepted", a)
		}
	}
}

func TestBuildFlatDegenerate(t *testing.T) {
	l := testLayout(6)
	p, err := Build(l, ZipfWeights(6, 0.95), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One disk always holds every object at speed 1 — the paper's flat
	// cycle, in hot-first order.
	if got := NewTimeline(p).MajorBits(); got != l.CycleBits() {
		t.Fatalf("flat program cycle %d bits, want %d", got, l.CycleBits())
	}
	if !reflect.DeepEqual(p.Slots(), []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("flat program slots %v", p.Slots())
	}
}

func TestBuildPartitionProperties(t *testing.T) {
	for _, tc := range []struct {
		n, disks int
		theta    float64
	}{
		{300, 3, 0.95}, {300, 2, 0.5}, {100, 4, 1.2}, {7, 3, 0.95},
		{64, 5, 0.8}, {300, 3, 0}, {1, 3, 0.9}, {2, 4, 0.95},
	} {
		p, err := Build(testLayout(tc.n), ZipfWeights(tc.n, tc.theta), tc.disks, 8)
		if err != nil {
			t.Fatalf("n=%d disks=%d theta=%v: %v", tc.n, tc.disks, tc.theta, err)
		}
		// Every object is on the air; speeds are powers of two, the
		// slowest normalized to 1.
		speed := appearances(p)
		for obj, s := range speed {
			if s < 1 || s&(s-1) != 0 {
				t.Fatalf("n=%d disks=%d: object %d appears %d times", tc.n, tc.disks, obj, s)
			}
		}
		if slices.Min(speed) != 1 {
			t.Fatalf("n=%d disks=%d: slowest speed %d, want 1", tc.n, tc.disks, slices.Min(speed))
		}
		// Monotone: a hotter object never spins slower.
		w := ZipfWeights(tc.n, tc.theta)
		for i := 1; i < tc.n; i++ {
			if w[i-1] > w[i] && speed[i-1] < speed[i] {
				t.Fatalf("hotter object %d slower than %d", i-1, i)
			}
		}
	}
}

func TestBuildUniformIsOneDisk(t *testing.T) {
	p, err := Build(testLayout(20), ZipfWeights(20, 0), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(appearances(p)) != 1 {
		t.Fatalf("uniform weights should collapse to one disk, got %v", p)
	}
}

func TestBuildDeterministic(t *testing.T) {
	l := testLayout(120)
	w := ZipfWeights(120, 0.95)
	a, err := Build(l, w, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(l, w, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Slots(), b.Slots()) {
		t.Fatal("Build is not deterministic")
	}
}

func TestBuildRejects(t *testing.T) {
	l := testLayout(4)
	if _, err := Build(l, ZipfWeights(3, 0.5), 1, 0); err == nil {
		t.Fatal("weight-count mismatch accepted")
	}
	if _, err := Build(l, ZipfWeights(4, 0.5), 0, 0); err == nil {
		t.Fatal("0 disks accepted")
	}
	if _, err := Build(l, ZipfWeights(4, 0.5), 1, -1); err == nil {
		t.Fatal("negative indexM accepted")
	}
	if _, err := Build(l, []float64{0, 0, 0, 0}, 2, 0); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := Build(l, []float64{1, math.NaN(), 1, 1}, 2, 0); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := Build(l, []float64{1, -2, 1, 1}, 2, 0); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestHotObjectsRepeat(t *testing.T) {
	p, err := Build(testLayout(300), ZipfWeights(300, 0.95), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	speed := appearances(p)
	if speed[0] < 2 {
		t.Fatalf("hottest object speed %d, want >= 2 on a 3-disk program", speed[0])
	}
	if speed[299] != 1 {
		t.Fatalf("coldest object speed %d, want 1", speed[299])
	}
	// The timeline carries each object once per appearance.
	tl := NewTimeline(p)
	for _, obj := range []int{0, 50, 299} {
		n := 0
		for _, f := range tl.Frames() {
			if f.Kind == FrameData && f.Obj == obj {
				n++
			}
		}
		if n != speed[obj] {
			t.Fatalf("object %d: %d data frames vs speed %d", obj, n, speed[obj])
		}
	}
}

// twoSpeed is a hand-built program: hot disk {0,1} at speed 2, cold
// disk {2,3,4,5} at speed 1, so 2 minor cycles and the cold disk in 2
// chunks.
func twoSpeed() *Program {
	return &Program{
		layout: bcast.LayoutFor(protocol.RMatrix, 6, 64, 8, 0),
		slots:  interleave([]disk{{objects: []int{0, 1}, speed: 2}, {objects: []int{2, 3, 4, 5}, speed: 1}}),
	}
}

func TestTwoSpeedSchedule(t *testing.T) {
	p := twoSpeed()
	if want := []int{0, 1, 2, 3, 0, 1, 4, 5}; !reflect.DeepEqual(p.Slots(), want) {
		t.Fatalf("slots = %v, want %v", p.Slots(), want)
	}
	if a := appearances(p); a[0] != 2 || a[4] != 1 {
		t.Errorf("appearances: hot %d cold %d", a[0], a[4])
	}
	if got := NewTimeline(p).MajorBits(); got != 8*p.Layout().SlotBits() {
		t.Errorf("major cycle %d bits, want %d", got, 8*p.Layout().SlotBits())
	}
}

// assignDisks must always hand interleave a valid geometry, whatever
// the weights: every object on exactly one non-empty disk, speeds
// powers of two, strictly decreasing to 1, each dividing the fastest,
// and every disk splitting evenly into its chunks.
func TestAssignDisksGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 5, 7, 16, 64, 100, 300, 1000} {
		for _, theta := range []float64{-1, 0, 0.5, 0.95, 1.2, 2, 4} {
			for disks := 1; disks <= min(n, 8); disks++ {
				w := ZipfWeights(n, theta)
				if theta < 0 { // random weights, random order
					for i := range w {
						w[i] = rng.Float64()
					}
				}
				ds := assignDisks(hotToCold(w), w, disks)
				seen := make([]bool, n)
				for i, d := range ds {
					if len(d.objects) == 0 || d.speed < 1 || d.speed&(d.speed-1) != 0 ||
						ds[0].speed%d.speed != 0 || (i > 0 && d.speed >= ds[i-1].speed) {
						t.Fatalf("n=%d θ=%v disks=%d: disk %d has %d objects at speed %d", n, theta, disks, i, len(d.objects), d.speed)
					}
					if len(d.objects)%(ds[0].speed/d.speed) != 0 {
						t.Fatalf("n=%d θ=%v disks=%d: disk %d of %d objects not in %d chunks", n, theta, disks, i, len(d.objects), ds[0].speed/d.speed)
					}
					for _, obj := range d.objects {
						if seen[obj] {
							t.Fatalf("n=%d θ=%v disks=%d: object %d twice", n, theta, disks, obj)
						}
						seen[obj] = true
					}
				}
				if slices.Contains(seen, false) || ds[len(ds)-1].speed != 1 {
					t.Fatalf("n=%d θ=%v disks=%d: an object unassigned or slowest speed %d", n, theta, disks, ds[len(ds)-1].speed)
				}
			}
		}
	}
}

func TestTimelineTwoSpeedNextReady(t *testing.T) {
	p := twoSpeed()
	tl := NewTimeline(p)
	slot, major := float64(p.Layout().SlotBits()), float64(tl.MajorBits())
	for _, c := range []struct {
		at        float64
		obj       int
		ready     float64
		cycle     int64
		situation string
	}{
		{0, 0, slot, 1, "first appearance"},
		{slot + 1, 0, 5 * slot, 1, "second appearance, same major cycle"},
		{5*slot + 1, 0, major + slot, 2, "after the last appearance"},
		{0, 5, 8 * slot, 1, "cold object"},
	} {
		if ready, cycle := tl.NextReady(c.at, c.obj); ready != c.ready || cycle != c.cycle {
			t.Errorf("%s: NextReady(%v, %d) = %v, %d; want %v, %d", c.situation, c.at, c.obj, ready, cycle, c.ready, c.cycle)
		}
	}
}

// Hot objects wait strictly less on average than on the flat disk;
// cold objects somewhat more.
func TestHotObjectsWaitLess(t *testing.T) {
	l := bcast.LayoutFor(protocol.RMatrix, 8, 64, 8, 0)
	multi := NewTimeline(&Program{layout: l, slots: interleave([]disk{
		{objects: []int{0, 1}, speed: 3},
		{objects: []int{2, 3, 4, 5, 6, 7}, speed: 1},
	})})
	rng := rand.New(rand.NewSource(81))
	meanWait := func(nextReady func(float64, int) (float64, int64), obj int) float64 {
		span := float64(multi.MajorBits()) * 10
		total := 0.0
		const samples = 2000
		for i := 0; i < samples; i++ {
			at := rng.Float64() * span
			ready, _ := nextReady(at, obj)
			if ready < at {
				t.Fatalf("NextReady went backwards: %v < %v", ready, at)
			}
			total += ready - at
		}
		return total / samples
	}
	if hot, flat := meanWait(multi.NextReady, 0), meanWait(l.NextReady, 0); hot >= flat {
		t.Errorf("hot object waits %.0f under multi-disk, %.0f flat", hot, flat)
	}
	if cold, flat := meanWait(multi.NextReady, 7), meanWait(l.NextReady, 7); cold <= flat {
		t.Errorf("cold object should wait more under multi-disk: %.0f vs %.0f", cold, flat)
	}
}

// Property: NextReady always returns a time >= t that ends one of the
// object's data frames in the major cycle it names.
func TestTimelineNextReadyConsistency(t *testing.T) {
	p, err := Build(testLayout(60), ZipfWeights(60, 0.95), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(p)
	rng := rand.New(rand.NewSource(82))
	major := float64(tl.MajorBits())
	for trial := 0; trial < 3000; trial++ {
		obj := rng.Intn(60)
		at := rng.Float64() * major * 7
		ready, cycle := tl.NextReady(at, obj)
		if ready < at || ready-at > major {
			t.Fatalf("obj %d at %v: ready %v", obj, at, ready)
		}
		within := ready - float64(cycle-1)*major
		found := false
		for f, fr := range tl.Frames() {
			if fr.Kind == FrameData && fr.Obj == obj && float64(tl.frameEnd(f)) == within {
				found = true
			}
		}
		if !found {
			t.Fatalf("obj %d at %v: ready %v (cycle %d, within %v) is not a transmission end", obj, at, ready, cycle, within)
		}
	}
}

func TestTimelineIndexInterleave(t *testing.T) {
	p, err := Build(testLayout(300), ZipfWeights(300, 0.95), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(p)
	slots := len(p.Slots())
	if tl.FrameCount() != slots+8 {
		t.Fatalf("frame count %d, want %d data + 8 index", tl.FrameCount(), slots)
	}
	// All 8 segments present exactly once, in order, starting with
	// segment 0 as the first frame.
	var segs []int
	for _, f := range tl.Frames() {
		if f.Kind == FrameIndex {
			segs = append(segs, f.Segment)
		}
	}
	if !reflect.DeepEqual(segs, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("index segments %v", segs)
	}
	if tl.Frames()[0].Kind != FrameIndex {
		t.Fatal("major cycle should open with index segment 0")
	}
	// Spacing between consecutive index segments is within one data
	// slot of S/m.
	var idxPos []int
	for i, f := range tl.Frames() {
		if f.Kind == FrameIndex {
			idxPos = append(idxPos, i)
		}
	}
	want := slots / 8
	for i := 1; i < len(idxPos); i++ {
		gap := idxPos[i] - idxPos[i-1] - 1 // data frames between
		if gap < want-1 || gap > want+1 {
			t.Fatalf("uneven index spacing: %d data frames between segments %d..%d, want ~%d", gap, i-1, i, want)
		}
	}
	// Major cycle length = data bits + m index segments.
	wantBits := int64(slots)*p.Layout().SlotBits() + 8*p.IndexSegmentBits()
	if tl.MajorBits() != wantBits {
		t.Fatalf("major bits %d, want %d", tl.MajorBits(), wantBits)
	}
}

func TestTimelineNoIndex(t *testing.T) {
	p, err := Build(testLayout(12), ZipfWeights(12, 0.95), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(p)
	if tl.FrameCount() != len(p.Slots()) {
		t.Fatalf("frame count %d with no index, want %d", tl.FrameCount(), len(p.Slots()))
	}
	if _, ok := tl.NextIndexEnd(0); ok {
		t.Fatal("NextIndexEnd reported an index on an unindexed program")
	}
	if d := tl.NextIndexDistance(0); d != 0 {
		t.Fatalf("NextIndexDistance = %d on unindexed program", d)
	}
	if want := int64(len(p.Slots())) * p.Layout().SlotBits(); tl.MajorBits() != want {
		t.Fatalf("unindexed timeline %d bits, slots %d", tl.MajorBits(), want)
	}
}

func TestTimelineNextReady(t *testing.T) {
	p, err := Build(testLayout(40), ZipfWeights(40, 0.95), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(p)
	for _, obj := range []int{0, 5, 39} {
		// From 0: first occurrence, cycle 1.
		r0, c0 := tl.NextReady(0, obj)
		if c0 != 1 || r0 <= 0 || r0 > float64(tl.MajorBits()) {
			t.Fatalf("obj %d NextReady(0) = %v cycle %d", obj, r0, c0)
		}
		// Walking occurrence to occurrence wraps into cycle 2 exactly at
		// the first-occurrence offset plus one major cycle.
		at, r2, c2 := 0.0, 0.0, int64(0)
		for c2 != 2 {
			r2, c2 = tl.NextReady(at, obj)
			at = r2 + 1
		}
		if r2 != r0+float64(tl.MajorBits()) {
			t.Fatalf("obj %d wrap: first cycle-2 ready %v, want %v", obj, r2, r0+float64(tl.MajorBits()))
		}
		// Idempotent at the ready instant itself.
		rr, cc := tl.NextReady(r0, obj)
		if rr != r0 || cc != c0 {
			t.Fatalf("obj %d NextReady not idempotent at ready time", obj)
		}
	}
	// Hot object is ready sooner on average than a cold one from random
	// probe points.
	rng := rand.New(rand.NewSource(3))
	var hotWait, coldWait float64
	const probes = 2000
	for i := 0; i < probes; i++ {
		at := rng.Float64() * 4 * float64(tl.MajorBits())
		h, _ := tl.NextReady(at, 0)
		c, _ := tl.NextReady(at, 39)
		hotWait += h - at
		coldWait += c - at
	}
	if hotWait >= coldWait {
		t.Fatalf("hot object waits longer than cold: %v vs %v", hotWait/probes, coldWait/probes)
	}
}

// The simulator waits every read out on a Timeline; at one disk with no
// index that must be the paper's flat clock, bcast.Layout.NextReady,
// answer for answer, at random instants, at every slot end and around
// the major-cycle boundaries. The one difference is an exact boundary,
// which the timeline counts into the cycle it closes: the object whose
// frame ends there is ready at that very instant, where the flat clock
// already looks into the next cycle.
func TestFlatTimelineMatchesSchedule(t *testing.T) {
	algs := []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix, protocol.FMatrixNo, protocol.Grouped}
	rng := rand.New(rand.NewSource(5))
	for _, alg := range algs {
		for _, n := range []int{1, 3, 40, 300} {
			for _, theta := range []float64{0, 0.95} {
				layout := bcast.LayoutFor(alg, n, 8192, 8, min(n, 8))
				p, err := Build(layout, ZipfWeights(n, theta), 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				tl := NewTimeline(p)
				ref := layout // the flat clock
				major := float64(tl.MajorBits())
				if p.Slots()[0] != 0 || !slices.IsSorted(p.Slots()) || major != float64(ref.CycleBits()) {
					t.Fatalf("%v n=%d θ=%v: program %v, major %v vs %d", alg, n, theta, p, major, ref.CycleBits())
				}
				var probes []float64
				for range 200 {
					probes = append(probes, rng.Float64()*50*major)
				}
				for c := range 3 {
					// The last frame ends on a boundary, probed below.
					for f := range tl.FrameCount() - 1 {
						probes = append(probes, float64(c)*major+float64(tl.frameEnd(f)))
					}
				}
				for c := 1; c <= 5; c++ {
					at := float64(c) * major
					probes = append(probes, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)))
				}
				for j := range n {
					for _, at := range append(probes, 0) {
						gr, gc := tl.NextReady(at, j)
						wr, wc := ref.NextReady(at, j)
						if gr != wr || gc != wc {
							t.Fatalf("%v n=%d θ=%v: object %d at %v: timeline (%v, %d), schedule (%v, %d)",
								alg, n, theta, j, at, gr, gc, wr, wc)
						}
					}
					last := j == p.Slots()[n-1]
					for c := int64(1); c <= 5; c++ {
						at := float64(c) * major
						gr, gc := tl.NextReady(at, j)
						wr, wc := ref.NextReady(at, j)
						if last && (gr != at || gc != c || wr != at+major || wc != c+1) {
							t.Fatalf("%v n=%d: closing object %d at boundary %v: timeline (%v, %d), schedule (%v, %d)",
								alg, n, j, at, gr, gc, wr, wc)
						}
						if !last && (gr != wr || gc != wc) {
							t.Fatalf("%v n=%d: object %d at boundary %v: timeline (%v, %d), schedule (%v, %d)",
								alg, n, j, at, gr, gc, wr, wc)
						}
					}
				}
			}
		}
	}
}

func TestTimelineOffsets(t *testing.T) {
	p, err := Build(testLayout(30), ZipfWeights(30, 0.95), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(p)
	n := tl.FrameCount()
	for from := 0; from < n; from++ {
		// NextOccurrence lands on a data frame of the object.
		for _, obj := range []int{0, 15, 29} {
			d := tl.NextOccurrence(from, obj)
			if d < 1 || d > n {
				t.Fatalf("NextOccurrence(%d,%d) = %d out of [1,%d]", from, obj, d, n)
			}
			f := tl.Frames()[(from+d)%n]
			if f.Kind != FrameData || f.Obj != obj {
				t.Fatalf("NextOccurrence(%d,%d) = %d lands on %+v", from, obj, d, f)
			}
		}
		// NextIndexDistance lands on an index frame.
		d := tl.NextIndexDistance(from)
		if d < 1 || d > n {
			t.Fatalf("NextIndexDistance(%d) = %d", from, d)
		}
		if f := tl.Frames()[(from+d)%n]; f.Kind != FrameIndex {
			t.Fatalf("NextIndexDistance(%d) = %d lands on %+v", from, d, f)
		}
	}
}

func TestTimelineFramesIn(t *testing.T) {
	p, err := Build(testLayout(20), ZipfWeights(20, 0.95), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(p)
	major := float64(tl.MajorBits())
	// One full major cycle contains exactly FrameCount frames, from any
	// phase.
	for _, a := range []float64{0, 17, major / 3, major - 1} {
		if got := tl.FramesIn(a, a+major); got != int64(tl.FrameCount()) {
			t.Fatalf("FramesIn(%v, +major) = %d, want %d", a, got, tl.FrameCount())
		}
	}
	// Empty and inverted intervals.
	if tl.FramesIn(5, 5) != 0 || tl.FramesIn(10, 5) != 0 {
		t.Fatal("degenerate interval counted frames")
	}
	// Half-open: the frame ending exactly at b counts, at a does not.
	e0 := float64(tl.frameEnd(0))
	if tl.FramesIn(0, e0) != 1 {
		t.Fatalf("FramesIn(0,firstEnd) = %d, want 1", tl.FramesIn(0, e0))
	}
	if tl.FramesIn(e0, e0+0.5) != 0 {
		t.Fatal("frame ending at a counted")
	}
	// NextFrameEnd agrees with the ends table across a wrap.
	if got := tl.NextFrameEnd(major - 0.5); got != major+float64(tl.frameEnd(0)) && got != major {
		// Last frame ends exactly at major, so from major-0.5 the next
		// end is major itself.
		t.Fatalf("NextFrameEnd near wrap = %v", got)
	}
}

func TestIndexProbePath(t *testing.T) {
	// The canonical selective read: probe one frame, doze to the index,
	// doze to the object. Total listening = 3 frames, and the access
	// time can never beat continuous listening but must stay within one
	// index spacing + one major cycle of it.
	p, err := Build(testLayout(100), ZipfWeights(100, 0.95), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(p)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		at := rng.Float64() * 3 * float64(tl.MajorBits())
		obj := rng.Intn(100)
		probe := tl.NextFrameEnd(at)
		idx, ok := tl.NextIndexEnd(probe)
		if !ok {
			t.Fatal("indexed program has no index")
		}
		ready, _ := tl.NextReady(idx, obj)
		direct, _ := tl.NextReady(at, obj)
		if ready < direct {
			t.Fatalf("indexed path ready %v before direct %v", ready, direct)
		}
		if ready-direct > 2*float64(tl.MajorBits()) {
			t.Fatalf("indexed path detour too long: %v vs %v", ready, direct)
		}
	}
}
