package bcast

import (
	"math"
	"math/rand"
	"testing"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

func TestLayoutControlBits(t *testing.T) {
	const n, objBits, ts = 300, 8192, 8
	cases := []struct {
		alg  protocol.Algorithm
		want int64
	}{
		{protocol.FMatrix, n * ts},
		{protocol.FMatrixNo, 0},
		{protocol.RMatrix, ts},
		{protocol.Datacycle, ts},
		{protocol.Grouped, 10 * ts},
	}
	for _, c := range cases {
		l := LayoutFor(c.alg, n, objBits, ts, 10)
		if err := l.Validate(); err != nil {
			t.Fatalf("%v: %v", c.alg, err)
		}
		if got := l.ControlBitsPerObject(); got != c.want {
			t.Errorf("%v: control bits = %d, want %d", c.alg, got, c.want)
		}
		if got := l.CycleBits(); got != int64(n)*(objBits+c.want) {
			t.Errorf("%v: cycle bits = %d", c.alg, got)
		}
	}
}

// Section 4.1: with TS=8, 1 KB objects and 300 objects, F-Matrix spends
// about 23% of the cycle on control information; R-Matrix and Datacycle
// about 0.1%.
func TestControlOverheadMatchesPaper(t *testing.T) {
	f := LayoutFor(protocol.FMatrix, 300, 8192, 8, 0)
	if got := f.ControlOverhead(); math.Abs(got-0.2266) > 0.005 {
		t.Errorf("F-Matrix overhead = %.4f, want ≈ 0.227 (paper: about 23%%)", got)
	}
	r := LayoutFor(protocol.RMatrix, 300, 8192, 8, 0)
	if got := r.ControlOverhead(); math.Abs(got-0.000976) > 0.0002 {
		t.Errorf("R-Matrix overhead = %.6f, want ≈ 0.001 (paper: about 0.1%%)", got)
	}
	no := LayoutFor(protocol.FMatrixNo, 300, 8192, 8, 0)
	if no.ControlOverhead() != 0 {
		t.Errorf("F-Matrix-No overhead = %v, want 0", no.ControlOverhead())
	}
}

func TestObjectReadyOffset(t *testing.T) {
	l := LayoutFor(protocol.FMatrix, 4, 100, 8, 0)
	slot := l.SlotBits()
	if slot != 100+4*8 {
		t.Fatalf("slot = %d", slot)
	}
	for j := 0; j < 4; j++ {
		if got := l.ObjectReadyOffset(j); got != int64(j+1)*slot {
			t.Errorf("ObjectReadyOffset(%d) = %d", j, got)
		}
	}
	if l.ObjectReadyOffset(3) != l.CycleBits() {
		t.Error("last object must be ready exactly at cycle end")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range offset should panic")
		}
	}()
	l.ObjectReadyOffset(4)
}

// The flat clock: every object once per cycle in id order, ready at its
// ObjectReadyOffset, one cycle per CycleBits.
func TestSingleDiskSchedule(t *testing.T) {
	l := LayoutFor(protocol.RMatrix, 4, 64, 8, 0)
	for j := 0; j < 4; j++ {
		ready, cycle := l.NextReady(0, j)
		if ready != float64(l.ObjectReadyOffset(j)) || cycle != 1 {
			t.Errorf("NextReady(0, %d) = %v, %d; want %d, 1", j, ready, cycle, l.ObjectReadyOffset(j))
		}
		ready, cycle = l.NextReady(float64(3*l.CycleBits()), j)
		if ready != float64(3*l.CycleBits()+l.ObjectReadyOffset(j)) || cycle != 4 {
			t.Errorf("NextReady(3 cycles, %d) = %v, %d", j, ready, cycle)
		}
	}
}

func TestNextReadyAcrossCycles(t *testing.T) {
	l := LayoutFor(protocol.RMatrix, 6, 64, 8, 0)
	slot, major := l.SlotBits(), l.CycleBits()
	// Idempotent at the ready instant itself.
	if ready, cycle := l.NextReady(float64(2*slot), 1); ready != float64(2*slot) || cycle != 1 {
		t.Errorf("NextReady at the ready instant = %v, %d", ready, cycle)
	}
	// Just after its slot, object 1 waits for the next cycle.
	if ready, cycle := l.NextReady(float64(2*slot)+1, 1); ready != float64(major+2*slot) || cycle != 2 {
		t.Errorf("wrap = %v, %d", ready, cycle)
	}
	// An exact cycle boundary already belongs to the next cycle, even for
	// the last object, whose frame ends there.
	for c := int64(1); c <= 3; c++ {
		at := float64(c * major)
		if ready, cycle := l.NextReady(at, 5); ready != at+float64(major) || cycle != c+1 {
			t.Errorf("last object at boundary %v = %v, %d", at, ready, cycle)
		}
		if ready, cycle := l.NextReady(at, 0); ready != at+float64(slot) || cycle != c+1 {
			t.Errorf("first object at boundary %v = %v, %d", at, ready, cycle)
		}
	}
	// Before time 0 the first cycle still serves.
	if ready, cycle := l.NextReady(-5, 3); ready != float64(4*slot) || cycle != 1 {
		t.Errorf("NextReady(-5, 3) = %v, %d", ready, cycle)
	}
}

// Property: NextReady returns a time >= t that ends one of the object's
// transmissions in the cycle it names, at most one cycle away.
func TestNextReadyConsistency(t *testing.T) {
	l := LayoutFor(protocol.FMatrix, 6, 1000, 8, 0)
	rng := rand.New(rand.NewSource(82))
	major := float64(l.CycleBits())
	for trial := 0; trial < 3000; trial++ {
		obj := rng.Intn(6)
		at := rng.Float64() * major * 7
		ready, cycle := l.NextReady(at, obj)
		if ready < at || ready-at > major {
			t.Fatalf("obj %d at %v: ready %v", obj, at, ready)
		}
		if within := ready - float64(cycle-1)*major; within != float64(l.ObjectReadyOffset(obj)) {
			t.Fatalf("obj %d at %v: ready %v (cycle %d, within %v) is not a transmission end", obj, at, ready, cycle, within)
		}
	}
}

func TestLayoutValidateErrors(t *testing.T) {
	bad := []Layout{
		{Objects: 0, ObjectBits: 8, TimestampBits: 8, Control: ControlVector},
		{Objects: 3, ObjectBits: 0, TimestampBits: 8, Control: ControlVector},
		{Objects: 3, ObjectBits: 8, TimestampBits: 0, Control: ControlVector},
		{Objects: 3, ObjectBits: 8, TimestampBits: 40, Control: ControlMatrix},
		{Objects: 3, ObjectBits: 8, TimestampBits: 8, Control: ControlGrouped, Groups: 0},
		{Objects: 3, ObjectBits: 8, TimestampBits: 8, Control: ControlGrouped, Groups: 4},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %d should be invalid: %+v", i, l)
		}
	}
	// ControlNone doesn't need timestamps.
	ok := Layout{Objects: 3, ObjectBits: 8, Control: ControlNone}
	if err := ok.Validate(); err != nil {
		t.Errorf("ControlNone layout should validate: %v", err)
	}
}

func TestControlKindStringsAndMapping(t *testing.T) {
	for k, want := range map[ControlKind]string{
		ControlNone: "none", ControlVector: "vector",
		ControlMatrix: "matrix", ControlGrouped: "grouped",
	} {
		if k.String() != want {
			t.Errorf("String = %q, want %q", k.String(), want)
		}
	}
	if ControlKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown algorithm should panic")
		}
	}()
	ControlKindFor(protocol.Algorithm(42))
}

func TestCycleBroadcastSnapshot(t *testing.T) {
	m := &CycleBroadcast{Matrix: cmatrix.NewMatrix(2)}
	if _, ok := m.Snapshot().(*cmatrix.Matrix); !ok {
		t.Error("matrix broadcast should yield a matrix snapshot")
	}
	v := &CycleBroadcast{Vector: cmatrix.NewVector(2)}
	if _, ok := v.Snapshot().(*cmatrix.Vector); !ok {
		t.Error("vector broadcast should yield a vector snapshot")
	}
	g := &CycleBroadcast{Grouped: cmatrix.GroupedOf(cmatrix.NewMatrix(2), cmatrix.UniformPartition(2, 1))}
	if _, ok := g.Snapshot().(*cmatrix.Grouped); !ok {
		t.Error("grouped broadcast should yield a grouped snapshot")
	}
	col := m.Column(1)
	if col.Obj != 1 || len(col.Col) != 2 {
		t.Errorf("Column = %+v", col)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty broadcast snapshot should panic")
			}
		}()
		(&CycleBroadcast{}).Snapshot()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Column without matrix should panic")
			}
		}()
		v.Column(0)
	}()
}

func TestMediumFanOut(t *testing.T) {
	m := NewMedium()
	s1 := m.Subscribe(4)
	s2 := m.Subscribe(4)
	if m.Subscribers() != 2 {
		t.Fatalf("Subscribers = %d", m.Subscribers())
	}
	cb := &CycleBroadcast{Number: 1}
	m.Publish(cb)
	for i, s := range []*Subscription{s1, s2} {
		got := <-s.C
		if got.Number != 1 {
			t.Errorf("subscriber %d got cycle %d", i, got.Number)
		}
	}
}

func TestMediumLateTunerGetsLastCycle(t *testing.T) {
	m := NewMedium()
	m.Publish(&CycleBroadcast{Number: 7})
	s := m.Subscribe(1)
	got := <-s.C
	if got.Number != 7 {
		t.Errorf("late tuner got cycle %d, want 7", got.Number)
	}
}

func TestMediumSlowSubscriberMissesCycles(t *testing.T) {
	m := NewMedium()
	s := m.Subscribe(1)
	m.Publish(&CycleBroadcast{Number: 1})
	m.Publish(&CycleBroadcast{Number: 2}) // buffer full: missed
	got := <-s.C
	if got.Number != 1 {
		t.Fatalf("got cycle %d, want 1", got.Number)
	}
	select {
	case cb := <-s.C:
		t.Fatalf("unexpected extra cycle %d", cb.Number)
	default:
	}
}

func TestMediumCancelAndClose(t *testing.T) {
	m := NewMedium()
	s := m.Subscribe(1)
	s.Cancel()
	if m.Subscribers() != 0 {
		t.Error("cancel should remove the subscriber")
	}
	if _, ok := <-s.C; ok {
		t.Error("cancelled channel should be closed")
	}
	s.Cancel() // double-cancel is a no-op

	s2 := m.Subscribe(1)
	m.Close()
	if _, ok := <-s2.C; ok {
		t.Error("close should close subscriber channels")
	}
	m.Publish(&CycleBroadcast{Number: 9}) // no panic after close
	m.Close()                             // double-close is a no-op
	s3 := m.Subscribe(1)
	if _, ok := <-s3.C; ok {
		t.Error("subscribing to a closed medium should yield a closed channel")
	}
}
