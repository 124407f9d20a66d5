package experiments

import (
	"bytes"
	"testing"
)

// TestBenchObsParallelism: the machine-readable bench output — including
// the embedded per-series obs snapshots and the sweep-level merged
// snapshot — must be byte-identical whether the sweep ran sequentially
// or on a worker pool. This is the registry-merge counterpart of
// TestAllSequentialVsParallel.
func TestBenchObsParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep reproduction too slow for -short")
	}
	run := func(parallelism int) []byte {
		opt := parallelQuick()
		opt.Parallelism = parallelism
		e, err := ByID("2a", opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := run(1)
	par := run(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("bench JSON differs across sweep parallelism\nsequential:\n%s\nparallel:\n%s", seq, par)
	}

	// The embedded snapshots must actually be there: at least one
	// series-level obs block and the merged sweep-level block.
	e, err := ByID("2a", parallelQuick())
	if err != nil {
		t.Fatal(err)
	}
	b := e.Bench()
	if b.Obs == nil || len(b.Obs.Counters) == 0 {
		t.Fatal("bench output carries no merged obs snapshot")
	}
	if b.Obs.Counters["server_cycles"] == 0 {
		t.Error("merged snapshot has no server_cycles count")
	}
	found := false
	for _, pt := range b.Points {
		for _, bm := range pt.Series {
			if bm.Obs != nil && bm.Obs.Counters["client_reads"] > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no per-series obs snapshot with client_reads > 0")
	}
}
