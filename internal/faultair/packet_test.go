package faultair

import (
	"reflect"
	"sync"
	"testing"
)

func TestPacketScheduleZeroIdentity(t *testing.T) {
	// Property: the zero-rate profile is the identity channel — every
	// packet delivered exactly once, in order, for any client and index.
	s := NewPacketSchedule(PacketProfile{Seed: 123})
	for client := 0; client < 8; client++ {
		for idx := uint64(0); idx < 4096; idx++ {
			if s.Dropped(client, idx) || s.Duplicated(client, idx) || s.Lag(client, idx) != 0 {
				t.Fatalf("zero profile faulted client %d packet %d", client, idx)
			}
		}
	}
}

func TestPacketScheduleValidate(t *testing.T) {
	bad := []PacketProfile{
		{Loss: -0.1}, {Loss: 1.1}, {Dup: -1}, {Dup: 2}, {ReorderMax: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: profile %+v accepted", i, p)
		}
	}
	if err := (PacketProfile{Loss: 0.5, Dup: 0.5, ReorderMax: 100}).Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestPacketScheduleDropNeverDuplicated(t *testing.T) {
	s := NewPacketSchedule(PacketProfile{Loss: 0.5, Dup: 0.5, Seed: 7})
	for idx := uint64(0); idx < 10000; idx++ {
		if s.Dropped(3, idx) && s.Duplicated(3, idx) {
			t.Fatalf("packet %d both dropped and duplicated", idx)
		}
	}
}

func TestPacketScheduleRates(t *testing.T) {
	s := NewPacketSchedule(PacketProfile{Loss: 0.1, Dup: 0.05, ReorderMax: 9, Seed: 31})
	const n = 200000
	var drops, dups, lagSum int
	for idx := uint64(0); idx < n; idx++ {
		if s.Dropped(0, idx) {
			drops++
		}
		if s.Duplicated(0, idx) {
			dups++
		}
		lagSum += s.Lag(0, idx)
	}
	if f := float64(drops) / n; f < 0.09 || f > 0.11 {
		t.Errorf("empirical loss %v, want ~0.10", f)
	}
	// Dup applies only to survivors: expect ~0.05 · 0.9.
	if f := float64(dups) / n; f < 0.035 || f > 0.055 {
		t.Errorf("empirical dup %v, want ~0.045", f)
	}
	if mean := float64(lagSum) / n; mean < 4.2 || mean > 4.8 {
		t.Errorf("mean lag %v, want ~4.5", mean)
	}
}

func TestPacketScheduleReplayDeterminism(t *testing.T) {
	// Property: the schedule is a pure function — hammering it from many
	// goroutines in arbitrary interleavings yields the same trace as a
	// serial scan.
	s := NewPacketSchedule(PacketProfile{Loss: 0.2, Dup: 0.1, ReorderMax: 5, Seed: 63})
	const clients, packets = 4, 2000
	serial := make([][]PacketFate, clients)
	for c := 0; c < clients; c++ {
		serial[c] = s.packetTrace(c, 0, packets-1)
	}
	const workers = 8
	var wg sync.WaitGroup
	concurrent := make([][][]PacketFate, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([][]PacketFate, clients)
			// Each worker walks clients and packets in a different
			// order; purity means order cannot matter.
			for c := 0; c < clients; c++ {
				cc := (c + w) % clients
				out[cc] = make([]PacketFate, packets)
				for i := 0; i < packets; i++ {
					idx := uint64((i*7 + w*13) % packets)
					out[cc][idx] = PacketFate{
						Index:      idx,
						Dropped:    s.Dropped(cc, idx),
						Duplicated: s.Duplicated(cc, idx),
						Lag:        s.Lag(cc, idx),
					}
				}
			}
			concurrent[w] = out
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for c := 0; c < clients; c++ {
			// The scatter order above visits every index exactly once
			// iff gcd(7, packets) == 1; verify and compare.
			for i := 0; i < packets; i++ {
				if concurrent[w][c][i].Index != uint64(i) {
					t.Fatalf("worker %d client %d: index %d not covered", w, c, i)
				}
			}
			if !reflect.DeepEqual(concurrent[w][c], serial[c]) {
				t.Fatalf("worker %d client %d: concurrent trace differs from serial", w, c)
			}
		}
	}
}

func TestPacketScheduleSeedIndependence(t *testing.T) {
	a := NewPacketSchedule(PacketProfile{Loss: 0.3, Seed: 1})
	b := NewPacketSchedule(PacketProfile{Loss: 0.3, Seed: 2})
	same := 0
	const n = 5000
	for idx := uint64(0); idx < n; idx++ {
		if a.Dropped(0, idx) == b.Dropped(0, idx) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical drop traces")
	}
}
