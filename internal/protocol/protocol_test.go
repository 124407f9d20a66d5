package protocol

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/core"
	"broadcastcc/internal/history"
)

func TestAlgorithmStrings(t *testing.T) {
	for alg, want := range map[Algorithm]string{
		Datacycle: "Datacycle", RMatrix: "R-Matrix", FMatrix: "F-Matrix",
		FMatrixNo: "F-Matrix-No", Grouped: "Grouped",
	} {
		if alg.String() != want {
			t.Errorf("String(%d) = %q, want %q", alg, alg.String(), want)
		}
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm should render")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for s, want := range map[string]Algorithm{
		"datacycle": Datacycle, "rmatrix": RMatrix, "r-matrix": RMatrix,
		"fmatrix": FMatrix, "F-Matrix": FMatrix, "fmatrix-no": FMatrixNo,
		"grouped": Grouped,
	} {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestNewValidatorKinds(t *testing.T) {
	if _, ok := NewValidator(RMatrix).(*RMatrixValidator); !ok {
		t.Error("RMatrix should get the disjunctive validator")
	}
	for _, alg := range []Algorithm{Datacycle, FMatrix, FMatrixNo, Grouped} {
		if _, ok := NewValidator(alg).(*ConjunctiveValidator); !ok {
			t.Errorf("%v should get the conjunctive validator", alg)
		}
	}
}

func TestRMatrixNeedsVectorSnapshot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("R-Matrix with a matrix snapshot should panic")
		}
	}()
	v := &RMatrixValidator{}
	v.TryRead(cmatrix.NewMatrix(2), 0, 1)
}

// Worked scenario: object 0 is overwritten between two reads.
func TestDatacycleVsRMatrixOnOverwrite(t *testing.T) {
	vec := cmatrix.NewVector(2)
	snap1 := vec.Clone()   // cycle 1 snapshot: nothing written
	vec.Apply([]int{0}, 1) // a commit in cycle 1 overwrites ob0
	snap2 := vec.Clone()   // cycle 2 snapshot: V(0)=1

	// Datacycle: read ob0 at cycle 1, then ob1 at cycle 2 - V(0)=1 >= 1 fails.
	d := NewValidator(Datacycle)
	if !d.TryRead(snap1, 0, 1) {
		t.Fatal("first read must succeed")
	}
	if d.TryRead(snap2, 1, 2) {
		t.Error("Datacycle must abort: previously read value overwritten")
	}

	// R-Matrix: same reads pass because ob1 itself is unchanged since the
	// first read (V(1)=0 < c_first=1).
	r := NewValidator(RMatrix)
	if !r.TryRead(snap1, 0, 1) {
		t.Fatal("first read must succeed")
	}
	if !r.TryRead(snap2, 1, 2) {
		t.Error("R-Matrix should allow the read via the first-read disjunct")
	}

	// But if the new object was also overwritten after the first read,
	// R-Matrix must abort too.
	r2 := NewValidator(RMatrix)
	vec2 := cmatrix.NewVector(2)
	s1 := vec2.Clone()
	vec2.Apply([]int{0, 1}, 1) // both overwritten during cycle 1
	s2 := vec2.Clone()
	if !r2.TryRead(s1, 0, 1) {
		t.Fatal("first read must succeed")
	}
	if r2.TryRead(s2, 1, 2) {
		t.Error("R-Matrix must abort when both disjuncts fail")
	}
}

// F-Matrix permits reads Datacycle and R-Matrix reject when the
// overwriting transaction is unrelated to what the client reads.
func TestFMatrixIgnoresUnrelatedWriters(t *testing.T) {
	m := cmatrix.NewMatrix(3)
	snap1 := m.Clone()
	// Unrelated blind writer hits ob0 in cycle 1.
	m.Apply(nil, []int{0}, 1)
	// A writer of ob1 that does NOT depend on ob0 commits in cycle 1.
	m.Apply(nil, []int{1}, 1)
	snap2 := m.Clone()

	f := NewValidator(FMatrix)
	if !f.TryRead(snap1, 0, 1) { // read ob0 at cycle 1 (initial value)
		t.Fatal("first read must succeed")
	}
	// Reading ob1 at cycle 2: C(0, 1) = 0 < 1, so F-Matrix allows it even
	// though ob0 was overwritten.
	if !f.TryRead(snap2, 1, 2) {
		t.Error("F-Matrix must allow reading from an independent writer")
	}

	// If instead the ob1 writer had read ob0 (depends on the overwrite),
	// F-Matrix must abort.
	m2 := cmatrix.NewMatrix(3)
	s1 := m2.Clone()
	m2.Apply(nil, []int{0}, 1)      // overwrite ob0 in cycle 1
	m2.Apply([]int{0}, []int{1}, 1) // dependent writer of ob1
	s2 := m2.Clone()
	f2 := NewValidator(FMatrix)
	if !f2.TryRead(s1, 0, 1) {
		t.Fatal("first read must succeed")
	}
	if f2.TryRead(s2, 1, 2) {
		t.Error("F-Matrix must reject reading a value that depends on the overwrite")
	}
}

func TestValidatorReadSetAndReset(t *testing.T) {
	m := cmatrix.NewMatrix(2)
	snap := m
	v := NewValidator(FMatrix)
	v.TryRead(snap, 0, 3)
	v.TryRead(snap, 1, 4)
	rs := v.ReadSet()
	if len(rs) != 2 || rs[0] != (ReadAt{0, 3}) || rs[1] != (ReadAt{1, 4}) {
		t.Errorf("ReadSet = %v", rs)
	}
	rs[0].Obj = 99 // must not alias internal state
	v.Reset()
	if len(v.ReadSet()) != 0 {
		t.Error("Reset should clear the read-set")
	}

	r := &RMatrixValidator{}
	vec := cmatrix.NewVector(2)
	r.TryRead(vec, 0, 7)
	if c, ok := r.firstReadCycle(); !ok || c != 7 {
		t.Errorf("firstReadCycle = %v, %v", c, ok)
	}
	r.Reset()
	if _, ok := r.firstReadCycle(); ok {
		t.Error("Reset should clear first-read state")
	}
}

// ---- Randomized end-to-end validation against the core checkers ----

// world simulates a broadcast server: random update transactions commit
// during cycles; per-cycle snapshots of the control structures are taken
// at the beginning of every cycle (reflecting all commits of earlier
// cycles).
type world struct {
	n      int
	log    []cmatrix.Commit
	snapsM []*cmatrix.Matrix // snapsM[c] = C at beginning of cycle c
	snapsV []*cmatrix.Vector
}

func newWorld(rng *rand.Rand, n, cycles, txns int) *world {
	w := &world{n: n}
	m := cmatrix.NewMatrix(n)
	v := cmatrix.NewVector(n)
	// Assign each transaction a commit cycle in [1, cycles].
	cyclesOf := make([]int, txns)
	for i := range cyclesOf {
		cyclesOf[i] = 1 + rng.Intn(cycles)
	}
	// Serial commit order must be consistent with commit cycles.
	sortInts(cyclesOf)
	next := 0
	for c := 1; c <= cycles; c++ {
		// Snapshot at the beginning of cycle c: state after all commits
		// of cycles < c.
		w.snapsM = append(w.snapsM, m.Clone())
		w.snapsV = append(w.snapsV, v.Clone())
		for next < txns && cyclesOf[next] == c {
			commit := cmatrix.Commit{Cycle: cmatrix.Cycle(c)}
			for _, k := range rng.Perm(n)[:rng.Intn(n)] {
				commit.ReadSet = append(commit.ReadSet, k)
			}
			for _, k := range rng.Perm(n)[:1+rng.Intn(2)] {
				commit.WriteSet = append(commit.WriteSet, k)
			}
			w.log = append(w.log, commit)
			m.Apply(commit.ReadSet, commit.WriteSet, commit.Cycle)
			v.Apply(commit.WriteSet, commit.Cycle)
			next++
		}
	}
	// Final snapshot so reads in cycle cycles+1 see everything.
	w.snapsM = append(w.snapsM, m.Clone())
	w.snapsV = append(w.snapsV, v.Clone())
	return w
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// matrixAt returns the C snapshot for the beginning of cycle c (1-based).
func (w *world) matrixAt(c cmatrix.Cycle) *cmatrix.Matrix {
	return w.snapsM[int(c)-1]
}

func (w *world) vectorAt(c cmatrix.Cycle) *cmatrix.Vector {
	return w.snapsV[int(c)-1]
}

// maxCycle reports the last cycle with a snapshot.
func (w *world) maxCycle() cmatrix.Cycle { return cmatrix.Cycle(len(w.snapsM)) }

// inducedHistory builds the combined execution history: the update
// transactions serially in commit order, with the client's reads
// inserted so that each read of (obj, cycle) sees exactly the last
// committed value as of the beginning of that cycle. The client commits
// at the end. Object k is named "x<k>"; update transactions get ids
// 1..len(log); the client is id len(log)+1.
func (w *world) inducedHistory(reads []ReadAt) *history.History {
	h := history.New()
	client := history.TxnID(len(w.log) + 1)
	obj := func(k int) string { return fmt.Sprintf("x%d", k) }
	ri := 0
	emitReadsBefore := func(cycle cmatrix.Cycle) {
		for ri < len(reads) && reads[ri].Cycle <= cycle {
			h.Append(history.Read(client, obj(reads[ri].Obj)))
			ri++
		}
	}
	for i, commit := range w.log {
		// Reads of cycles <= commit.Cycle see state before this commit
		// only if their cycle began before the commit; a read at cycle c
		// sees commits of cycles < c. So emit reads with cycle <= commit.Cycle
		// BEFORE this commit when commit.Cycle >= their cycle.
		emitReadsBefore(commit.Cycle)
		id := history.TxnID(i + 1)
		for _, k := range commit.ReadSet {
			h.Append(history.Read(id, obj(k)))
		}
		for _, k := range commit.WriteSet {
			h.Append(history.Write(id, obj(k)))
		}
		h.Append(history.Commit(id))
	}
	emitReadsBefore(w.maxCycle() + 1)
	h.Append(history.Commit(client))
	return h
}

// inducedHistoryUnordered accepts reads in any cycle order (cached
// reads): operation order within a read-only transaction does not
// affect conflicts, so each read is placed at the position its cycle
// dictates.
func (w *world) inducedHistoryUnordered(reads []ReadAt) *history.History {
	sorted := append([]ReadAt(nil), reads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })
	return w.inducedHistory(sorted)
}

// randomReads picks a client read-only transaction: distinct objects at
// non-decreasing cycles.
func randomReads(rng *rand.Rand, w *world, maxReads int) []ReadAt {
	k := 1 + rng.Intn(maxReads)
	if k > w.n {
		k = w.n
	}
	objs := rng.Perm(w.n)[:k]
	cycle := 1 + rng.Intn(int(w.maxCycle()))
	var out []ReadAt
	for _, o := range objs {
		out = append(out, ReadAt{Obj: o, Cycle: cmatrix.Cycle(cycle)})
		if cycle < int(w.maxCycle()) && rng.Float64() < 0.6 {
			cycle += 1 + rng.Intn(int(w.maxCycle())-cycle)
		}
	}
	return out
}

// runValidator replays reads through a validator with the appropriate
// snapshots, reporting whether all reads were accepted.
func runValidator(w *world, alg Algorithm, reads []ReadAt) bool {
	v := NewValidator(alg)
	for _, r := range reads {
		var snap Snapshot
		switch alg {
		case FMatrix, FMatrixNo:
			snap = w.matrixAt(r.Cycle)
		default:
			snap = w.vectorAt(r.Cycle)
		}
		if !v.TryRead(snap, r.Obj, r.Cycle) {
			return false
		}
	}
	return true
}

// Theorem 1: the F-Matrix protocol accepts a read-only transaction iff
// its serialization graph S(t_R) is acyclic — i.e. iff APPROX accepts
// the induced history.
func TestTheorem1FMatrixExactlyAPPROX(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	accepted, rejected := 0, 0
	for trial := 0; trial < 600; trial++ {
		w := newWorld(rng, 2+rng.Intn(4), 1+rng.Intn(4), rng.Intn(6))
		reads := randomReads(rng, w, 4)
		got := runValidator(w, FMatrix, reads)
		h := w.inducedHistory(reads)
		client := history.TxnID(len(w.log) + 1)
		want := core.SerializableReadOnly(h, client).OK
		if got != want {
			t.Fatalf("trial %d: F-Matrix=%v S(t_R) acyclic=%v\nreads=%v\nhistory=%s",
				trial, got, want, reads, h)
		}
		if got {
			accepted++
			// Theorem 6 chain: accepted implies update consistent.
			if !core.Approx(h).OK {
				t.Fatalf("trial %d: F-Matrix accepted but APPROX rejects\n%s", trial, h)
			}
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate test: accepted=%d rejected=%d", accepted, rejected)
	}
}

// Theorem 9: R-Matrix accepts only schedules APPROX accepts.
func TestTheorem9RMatrixSubsetOfAPPROX(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	accepted := 0
	for trial := 0; trial < 600; trial++ {
		w := newWorld(rng, 2+rng.Intn(4), 1+rng.Intn(4), rng.Intn(6))
		reads := randomReads(rng, w, 4)
		if !runValidator(w, RMatrix, reads) {
			continue
		}
		accepted++
		h := w.inducedHistory(reads)
		if v := core.Approx(h); !v.OK {
			t.Fatalf("trial %d: R-Matrix accepted but APPROX rejects: %s\nreads=%v\n%s",
				trial, v.Reason, reads, h)
		}
	}
	if accepted == 0 {
		t.Fatal("degenerate test: R-Matrix accepted nothing")
	}
}

// Datacycle enforces serializability: the induced history (updates plus
// the reader) must be globally conflict serializable when it accepts.
func TestDatacycleImpliesSerializability(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	accepted := 0
	for trial := 0; trial < 600; trial++ {
		w := newWorld(rng, 2+rng.Intn(4), 1+rng.Intn(4), rng.Intn(6))
		reads := randomReads(rng, w, 4)
		if !runValidator(w, Datacycle, reads) {
			continue
		}
		accepted++
		h := w.inducedHistory(reads)
		if v := core.Serializable(h); !v.OK {
			t.Fatalf("trial %d: Datacycle accepted a non-serializable history: %s\nreads=%v\n%s",
				trial, v.Reason, reads, h)
		}
	}
	if accepted == 0 {
		t.Fatal("degenerate test: Datacycle accepted nothing")
	}
}

// Acceptance monotonicity (Figure 1 / Section 3.2.2): anything Datacycle
// accepts, R-Matrix accepts; anything R-Matrix accepts, F-Matrix accepts.
func TestAcceptanceMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 800; trial++ {
		w := newWorld(rng, 2+rng.Intn(4), 1+rng.Intn(4), rng.Intn(6))
		reads := randomReads(rng, w, 4)
		d := runValidator(w, Datacycle, reads)
		r := runValidator(w, RMatrix, reads)
		f := runValidator(w, FMatrix, reads)
		if d && !r {
			t.Fatalf("trial %d: Datacycle accepted but R-Matrix rejected\nreads=%v", trial, reads)
		}
		if r && !f {
			t.Fatalf("trial %d: R-Matrix accepted but F-Matrix rejected\nreads=%v", trial, reads)
		}
	}
}

// SnapshotValidator with out-of-order (cached) reads must remain exact:
// acceptance equals APPROX on the induced history, even when read
// cycles go backwards.
func TestSnapshotValidatorOutOfOrderExact(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	accepted, rejected := 0, 0
	for trial := 0; trial < 600; trial++ {
		w := newWorld(rng, 2+rng.Intn(4), 2+rng.Intn(4), rng.Intn(6))
		// Reads at arbitrary (unordered) cycles over distinct objects.
		k := 1 + rng.Intn(3)
		if k > w.n {
			k = w.n
		}
		var reads []ReadAt
		for _, o := range rng.Perm(w.n)[:k] {
			reads = append(reads, ReadAt{Obj: o, Cycle: cmatrix.Cycle(1 + rng.Intn(int(w.maxCycle())))})
		}
		v := &SnapshotValidator{}
		got := true
		for _, r := range reads {
			// Each read carries the column snapshot of its own cycle, as
			// a caching client would have stored it.
			col := make([]cmatrix.Cycle, w.n)
			for i := 0; i < w.n; i++ {
				col[i] = w.snapsM[int(r.Cycle)-1].At(i, r.Obj)
			}
			if !v.TryRead(ColumnSnapshot{Obj: r.Obj, Col: col}, r.Obj, r.Cycle) {
				got = false
				break
			}
		}
		h := w.inducedHistoryUnordered(reads)
		client := history.TxnID(len(w.log) + 1)
		want := core.SerializableReadOnly(h, client).OK
		if got != want {
			t.Fatalf("trial %d: snapshot validator=%v, S(t_R) acyclic=%v\nreads=%v\n%s",
				trial, got, want, reads, h)
		}
		if got {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate: accepted=%d rejected=%d", accepted, rejected)
	}
}

// TestSnapshotValidatorResetDropsSnapshots: after Reset no slot of the
// read list, up to its capacity, still holds a snapshot — a recycled
// validator pins nothing of the transactions it served before.
func TestSnapshotValidatorResetDropsSnapshots(t *testing.T) {
	v := &SnapshotValidator{}
	for attempt, reads := range []int{5, 2, 7, 0} {
		for obj := 0; obj < reads; obj++ {
			if !v.TryRead(ColumnSnapshot{Obj: obj, Col: make([]cmatrix.Cycle, 8)}, obj, 1) {
				t.Fatalf("attempt %d: read %d rejected", attempt, obj)
			}
		}
		v.Reset()
		if len(v.reads) != 0 {
			t.Fatalf("attempt %d: Reset left %d reads", attempt, len(v.reads))
		}
		for i, r := range v.reads[:cap(v.reads)] {
			if r.snap != nil || r.obj != 0 || r.cycle != 0 {
				t.Fatalf("attempt %d: slot %d of %d still holds %+v", attempt, i, cap(v.reads), r)
			}
		}
	}
}

// Prefix closure (the paper's Requirement 4, as realized by the
// protocols): every prefix of an accepted read sequence is accepted and
// induces an APPROX-consistent history.
func TestAcceptedReadPrefixesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	checked := 0
	for trial := 0; trial < 300 && checked < 60; trial++ {
		w := newWorld(rng, 2+rng.Intn(3), 2+rng.Intn(3), rng.Intn(5))
		reads := randomReads(rng, w, 4)
		if !runValidator(w, FMatrix, reads) {
			continue
		}
		checked++
		for k := 1; k <= len(reads); k++ {
			prefix := reads[:k]
			if !runValidator(w, FMatrix, prefix) {
				t.Fatalf("trial %d: accepted sequence has rejected prefix of length %d", trial, k)
			}
			h := w.inducedHistory(prefix)
			if v := core.Approx(h); !v.OK {
				t.Fatalf("trial %d: prefix %d induces APPROX violation: %s", trial, k, v.Reason)
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing accepted")
	}
}

// The grouped matrix interpolates: with singleton groups it must agree
// with F-Matrix, with one group it must agree with Datacycle, and any
// grouping accepts a subset of F-Matrix.
func TestGroupedSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(4)
		w := newWorld(rng, n, 1+rng.Intn(4), rng.Intn(6))
		reads := randomReads(rng, w, 4)

		runGrouped := func(g int) bool {
			part := cmatrix.UniformPartition(n, g)
			v := NewValidator(Grouped)
			for _, r := range reads {
				snap := cmatrix.GroupedOf(w.snapsM[int(r.Cycle)-1], part)
				if !v.TryRead(snap, r.Obj, r.Cycle) {
					return false
				}
			}
			return true
		}

		f := runValidator(w, FMatrix, reads)
		d := runValidator(w, Datacycle, reads)
		if got := runGrouped(n); got != f {
			t.Fatalf("trial %d: grouped(g=n)=%v, F-Matrix=%v", trial, got, f)
		}
		if got := runGrouped(1); got != d {
			t.Fatalf("trial %d: grouped(g=1)=%v, Datacycle=%v", trial, got, d)
		}
		if n >= 2 {
			g := 1 + rng.Intn(n)
			if runGrouped(g) && !f {
				t.Fatalf("trial %d: grouped(g=%d) accepted but F-Matrix rejected", trial, g)
			}
		}
	}
}

// A cache-free client reads in non-decreasing cycle order, gaps or not.
// On such reads SnapshotValidator's backward clause is vacuous, so it
// must give the paper validator's verdict read by read under every
// conjunctive protocol, and under R-Matrix (where its forward clause is
// Datacycle's) accept a subset of what the first-read disjunct accepts.
// The commit streams run through the three server-side control states.
func TestSnapshotValidatorInOrderMatchesPaperValidators(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	accepted := map[Algorithm]int{}
	rejected := map[Algorithm]int{}
	onlyR := 0
	for trial := 0; trial < 1200; trial++ {
		n := 2 + rng.Intn(5)
		dense := cmatrix.NewDenseControl(n)
		vector := cmatrix.NewVectorControl(n)
		grouped := cmatrix.NewGroupedControl(cmatrix.UniformPartition(n, 1+rng.Intn(n)))
		// snaps[alg][c-1] is alg's control snapshot at the start of cycle c.
		snaps := map[Algorithm][]Snapshot{}
		cycles := 1 + rng.Intn(6)
		for c := 1; c <= cycles; c++ {
			snaps[FMatrix] = append(snaps[FMatrix], dense.Snapshot())
			snaps[Datacycle] = append(snaps[Datacycle], vector.Snapshot())
			snaps[Grouped] = append(snaps[Grouped], grouped.Snapshot())
			for k := rng.Intn(4); k > 0; k-- {
				rs := rng.Perm(n)[:rng.Intn(n)]
				ws := rng.Perm(n)[:1+rng.Intn(2)]
				for _, ctl := range []cmatrix.Control{dense, vector, grouped} {
					ctl.Apply(rs, ws, cmatrix.Cycle(c))
				}
			}
		}
		snaps[FMatrixNo], snaps[RMatrix] = snaps[FMatrix], snaps[Datacycle]

		reads := make([]ReadAt, 1+rng.Intn(5))
		cycle := 1 + rng.Intn(cycles)
		for i := range reads {
			reads[i] = ReadAt{Obj: rng.Intn(n), Cycle: cmatrix.Cycle(cycle)}
			cycle += rng.Intn(cycles - cycle + 1)
		}

		// verdicts replays reads through v until the first rejection:
		// one entry per read attempted.
		verdicts := func(v Validator, alg Algorithm) []bool {
			var out []bool
			for _, r := range reads {
				ok := v.TryRead(snaps[alg][r.Cycle-1], r.Obj, r.Cycle)
				out = append(out, ok)
				if !ok {
					break
				}
			}
			return out
		}
		for _, alg := range []Algorithm{FMatrix, FMatrixNo, Datacycle, Grouped} {
			got, want := verdicts(&SnapshotValidator{}, alg), verdicts(NewValidator(alg), alg)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d %v: snapshot validator %v, paper validator %v\nreads=%v",
					trial, alg, got, want, reads)
			}
			if got[len(got)-1] {
				accepted[alg]++
			} else {
				rejected[alg]++
			}
		}
		snap, r := verdicts(&SnapshotValidator{}, RMatrix), verdicts(NewValidator(RMatrix), RMatrix)
		for i, ok := range snap {
			if ok && !r[i] {
				t.Fatalf("trial %d: snapshot validator accepts read %d, R-Matrix rejects\nreads=%v",
					trial, i, reads)
			}
		}
		if len(r) == len(reads) && r[len(r)-1] && !snap[len(snap)-1] {
			onlyR++
		}
	}
	for _, alg := range []Algorithm{FMatrix, FMatrixNo, Datacycle, Grouped} {
		if accepted[alg] == 0 || rejected[alg] == 0 {
			t.Errorf("%v degenerate: accepted=%d rejected=%d", alg, accepted[alg], rejected[alg])
		}
	}
	if onlyR == 0 {
		t.Error("no stream where only R-Matrix's disjunct accepts")
	}
	t.Logf("accepted %v, rejected %v, R-Matrix only %d", accepted, rejected, onlyR)
}
