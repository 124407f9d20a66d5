package experiments

import (
	"errors"
	"testing"

	"broadcastcc/internal/protocol"
	"broadcastcc/internal/sim"
)

// parallelQuick keeps the sequential-vs-parallel comparison affordable:
// two algorithms (skipping Datacycle's pathological high-contention
// points), small transaction counts.
func parallelQuick() Options {
	return Options{
		Txns:        40,
		MeasureFrom: 10,
		Seed:        7,
		MaxTime:     5e11,
		Algorithms:  []protocol.Algorithm{protocol.RMatrix, protocol.FMatrix},
	}
}

// allSweeps runs every sweep of the "all" selection — the paper's
// figures plus the ablations — in table order.
func allSweeps(opt Options) ([]*Experiment, error) {
	figs, err := Select("all")
	if err != nil {
		return nil, err
	}
	var out []*Experiment
	for _, f := range figs {
		if !f.IsSweep() {
			continue
		}
		e, err := f.sweep(opt)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

// TestAllSequentialVsParallel verifies the seed-derivation scheme: a
// fully sequential reproduction and a worker-pool reproduction of
// every figure produce identical Experiment tables, byte for byte.
func TestAllSequentialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction too slow for -short")
	}
	seqOpt := parallelQuick()
	seqOpt.Parallelism = 1
	parOpt := parallelQuick()
	parOpt.Parallelism = 4

	seq, err := allSweeps(seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := allSweeps(parOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential produced %d experiments, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Fatalf("experiment %d: id %q vs %q", i, seq[i].ID, par[i].ID)
		}
		for _, m := range []Metric{ResponseTime, RestartRatio} {
			st, pt := seq[i].Table(m), par[i].Table(m)
			if st != pt {
				t.Errorf("figure %s [%s]: tables differ\nsequential:\n%s\nparallel:\n%s",
					seq[i].ID, m.label(), st, pt)
			}
		}
	}
}

// TestSweepParallelErrorMatchesSequential: when a run fails, the
// parallel sweep must surface the same (earliest, in sweep order)
// error a sequential sweep hits, and both must fail identically.
func TestSweepParallelErrorMatchesSequential(t *testing.T) {
	run := func(parallelism int) error {
		opt := parallelQuick()
		opt.Parallelism = parallelism
		opt.Algorithms = []protocol.Algorithm{protocol.Datacycle, protocol.FMatrix}
		row := Figure{ID: "err", title: "error propagation", xlabel: "x",
			xs: []float64{1, 2, 3, 4},
			apply: func(cfg *sim.Config, x float64) {
				if x == 2 && cfg.Algorithm == protocol.Datacycle {
					cfg.Objects = 0 // invalid: sim.Run rejects it
				}
			}}
		_, err := row.sweep(opt)
		return err
	}
	seqErr := run(1)
	parErr := run(4)
	if seqErr == nil || parErr == nil {
		t.Fatalf("both modes must fail: sequential=%v parallel=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error divergence:\nsequential: %v\nparallel:   %v", seqErr, parErr)
	}
}

// TestSweepOffScaleParallel: ErrMaxTime runs become off-scale points,
// not errors, under either execution mode.
func TestSweepOffScaleParallel(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		opt := parallelQuick()
		opt.Parallelism = parallelism
		opt.MaxTime = 1 // everything blows the guard instantly
		opt.Algorithms = []protocol.Algorithm{protocol.FMatrix}
		row := Figure{ID: "off", title: "off-scale", xlabel: "x", xs: []float64{1, 2},
			apply: func(cfg *sim.Config, x float64) {}}
		e, err := row.sweep(opt)
		if err != nil {
			if errors.Is(err, sim.ErrMaxTime) {
				t.Fatalf("parallelism=%d: ErrMaxTime must become an off-scale point, got error %v", parallelism, err)
			}
			t.Fatal(err)
		}
		for _, pt := range e.Points {
			if !pt.Runs[protocol.FMatrix.String()].OffScale {
				t.Errorf("parallelism=%d x=%g: expected off-scale", parallelism, pt.X)
			}
		}
	}
}
