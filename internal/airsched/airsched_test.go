package airsched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/protocol"
)

func testLayout(n int) bcast.Layout {
	return bcast.Layout{Objects: n, ObjectBits: 8000, TimestampBits: 16, Control: bcast.ControlMatrix}
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
	if e.Observations() != 200*3+400 {
		t.Fatalf("Observations = %d", e.Observations())
	}
	// Out-of-range ids are ignored, not counted.
	e.Observe([]int{-1, 99})
	if e.Observations() != 200*3+400 {
		t.Fatalf("out-of-range ids counted: %d", e.Observations())
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
	if !p.Flat() {
		t.Fatalf("1 disk + no index should be flat: %v", p)
	}
	// One disk always holds every object at speed 1 — same slot
	// multiset as the paper's flat cycle; hot-first order.
	flat, err := bcast.SingleDiskSchedule(l)
	if err != nil {
		t.Fatal(err)
	}
	if p.Schedule().MajorCycleBits() != flat.MajorCycleBits() {
		t.Fatalf("flat program cycle %d bits, want %d", p.Schedule().MajorCycleBits(), flat.MajorCycleBits())
	}
	for obj := 0; obj < 6; obj++ {
		if p.Speed(obj) != 1 {
			t.Fatalf("flat program speed(%d) = %d", obj, p.Speed(obj))
		}
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
		// Every object exactly once across disks (NewSchedule enforces
		// this too, but check the partition directly).
		seen := make([]bool, tc.n)
		for _, d := range p.Disks() {
			for _, obj := range d.Objects {
				if seen[obj] {
					t.Fatalf("n=%d disks=%d: object %d twice", tc.n, tc.disks, obj)
				}
				seen[obj] = true
			}
		}
		for obj, ok := range seen {
			if !ok {
				t.Fatalf("n=%d disks=%d: object %d unassigned", tc.n, tc.disks, obj)
			}
		}
		// Speeds strictly decreasing hot→cold, slowest normalized to 1,
		// all powers of two.
		ds := p.Disks()
		for i, d := range ds {
			if d.Speed&(d.Speed-1) != 0 {
				t.Fatalf("speed %d not a power of two", d.Speed)
			}
			if i > 0 && d.Speed >= ds[i-1].Speed {
				t.Fatalf("speeds not strictly decreasing: %v then %v", ds[i-1].Speed, d.Speed)
			}
		}
		if ds[len(ds)-1].Speed != 1 {
			t.Fatalf("slowest speed %d, want 1", ds[len(ds)-1].Speed)
		}
		// Monotone: a hotter object never spins slower.
		w := ZipfWeights(tc.n, tc.theta)
		for i := 1; i < tc.n; i++ {
			if w[i-1] > w[i] && p.Speed(i-1) < p.Speed(i) {
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
	if len(p.Disks()) != 1 || p.Disks()[0].Speed != 1 {
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
	if !reflect.DeepEqual(a.Disks(), b.Disks()) || !reflect.DeepEqual(a.Slots(), b.Slots()) {
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
	if _, err := Build(l, StaticWeights{0, 0, 0, 0}, 2, 0); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := Build(l, StaticWeights{1, math.NaN(), 1, 1}, 2, 0); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := Build(l, StaticWeights{1, -2, 1, 1}, 2, 0); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestHotObjectsRepeat(t *testing.T) {
	p, err := Build(testLayout(300), ZipfWeights(300, 0.95), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Speed(0) < 2 {
		t.Fatalf("hottest object speed %d, want >= 2 on a 3-disk program", p.Speed(0))
	}
	if p.Speed(299) != 1 {
		t.Fatalf("coldest object speed %d, want 1", p.Speed(299))
	}
	// Schedule appearances agree with disk speeds.
	for _, obj := range []int{0, 50, 299} {
		if got := p.Schedule().Appearances(obj); got != p.Speed(obj) {
			t.Fatalf("object %d: %d appearances vs speed %d", obj, got, p.Speed(obj))
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
	wantBits := p.Schedule().MajorCycleBits() + 8*p.IndexSegmentBits()
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
	if tl.MajorBits() != p.Schedule().MajorCycleBits() {
		t.Fatalf("unindexed timeline %d bits, schedule %d", tl.MajorBits(), p.Schedule().MajorCycleBits())
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
// index that must be the paper's flat bcast.Schedule, answer for answer,
// at random instants, at every slot end and around the major-cycle
// boundaries. The one difference is an exact boundary, which the
// timeline counts into the cycle it closes: the object whose frame ends
// there is ready at that very instant, where the schedule already looks
// into the next cycle.
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
				ref, err := bcast.SingleDiskSchedule(layout)
				if err != nil {
					t.Fatal(err)
				}
				major := float64(tl.MajorBits())
				if !p.Flat() || major != float64(ref.MajorCycleBits()) {
					t.Fatalf("%v n=%d θ=%v: program %v, major %v vs %d", alg, n, theta, p, major, ref.MajorCycleBits())
				}
				var probes []float64
				for range 200 {
					probes = append(probes, rng.Float64()*50*major)
				}
				for c := range 3 {
					// The last frame ends on a boundary, probed below.
					for f := range tl.FrameCount() - 1 {
						probes = append(probes, float64(c)*major+float64(tl.FrameEnd(f)))
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
	e0 := float64(tl.FrameEnd(0))
	if tl.FramesIn(0, e0) != 1 {
		t.Fatalf("FramesIn(0,firstEnd) = %d, want 1", tl.FramesIn(0, e0))
	}
	if tl.FramesIn(e0, e0+0.5) != 0 {
		t.Fatal("frame ending at a counted")
	}
	// NextFrameEnd agrees with the ends table across a wrap.
	if got := tl.NextFrameEnd(major - 0.5); got != major+float64(tl.FrameEnd(0)) && got != major {
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
