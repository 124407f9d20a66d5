package sim

import (
	"reflect"
	"testing"
	"time"

	"broadcastcc/internal/protocol"
)

func airschedConfig(disks, indexM int, theta float64) Config {
	cfg := DefaultConfig()
	cfg.Objects = 60
	cfg.ClientTxns = 400
	cfg.MeasureFrom = 100
	cfg.ZipfTheta = theta
	cfg.Disks = disks
	cfg.IndexM = indexM
	return cfg
}

// The headline airsched claim: at zipf θ=0.95 a 3-disk program with a
// (1,8) index cuts tuning time by at least 3× against the flat disk,
// at equal-or-better mean access time.
func TestAirschedTuningBeatsFlat(t *testing.T) {
	flat, err := Run(airschedConfig(1, 0, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	air, err := Run(airschedConfig(3, 8, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	ft, at := flat.TuningFrames.Mean(), air.TuningFrames.Mean()
	if at <= 0 || ft <= 0 {
		t.Fatalf("tuning not measured: flat=%v air=%v", ft, at)
	}
	if ft < 3*at {
		t.Errorf("tuning: flat %.1f frames vs indexed %.1f — want >= 3x reduction", ft, at)
	}
	if air.AccessTime.Mean() > flat.AccessTime.Mean() {
		t.Errorf("access: indexed %.0f vs flat %.0f — the multi-disk program must not cost access time",
			air.AccessTime.Mean(), flat.AccessTime.Mean())
	}
	if air.DozedFrames == 0 {
		t.Error("an indexed run must doze")
	}
	if flat.DozedFrames != 0 {
		t.Errorf("an unindexed run cannot doze, got %d", flat.DozedFrames)
	}
}

// Program runs are a pure function of the configuration.
func TestAirschedDeterministic(t *testing.T) {
	cfg := airschedConfig(3, 4, 0.8)
	cfg.ClientTxns = 150
	cfg.MeasureFrom = 50
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ResponseTime.Mean() != b.ResponseTime.Mean() ||
		a.TuningFrames.Mean() != b.TuningFrames.Mean() ||
		a.AccessTime.Mean() != b.AccessTime.Mean() ||
		a.SimulatedTime != b.SimulatedTime ||
		a.DozedFrames != b.DozedFrames {
		t.Fatalf("runs diverge:\n%+v\n%+v", a, b)
	}
}

// The degenerate flat program must behave like a broadcast: every read
// waits at most one major cycle.
func TestAirschedFlatDegenerate(t *testing.T) {
	cfg := airschedConfig(1, 0, 0.5)
	cfg.ClientTxns = 100
	cfg.MeasureFrom = 50
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ResponseTime.N() == 0 {
		t.Fatal("no transactions measured")
	}
	if r.TuningFrames.Mean() > float64(cfg.Objects*cfg.ClientTxnLength*2) {
		t.Errorf("flat tuning %.0f frames exceeds two major cycles of listening per read", r.TuningFrames.Mean())
	}
}

func TestAirschedConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.IndexM = 4 },       // index without a program
		func(c *Config) { c.Disks = -1 },       // negative disks
		func(c *Config) { c.Disks = 301 },      // more disks than objects
		func(c *Config) { c.ZipfTheta = -0.5 }, // negative skew
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config should be rejected: %+v", i, cfg)
		}
	}
	good := DefaultConfig()
	good.ZipfTheta = 0.95
	good.Disks = 3
	good.IndexM = 8
	if err := good.Validate(); err != nil {
		t.Errorf("valid airsched config rejected: %v", err)
	}
}

// The wheel keeps tuning per client and applies faults per client, so
// an airsched program runs at any client count: deterministically, with
// the indexed tuner dozing, and listening to fewer frames per
// transaction than the same clients on the flat one-disk program.
func TestAirschedMultiClient(t *testing.T) {
	shape := func(disks, indexM int) Config {
		cfg := airschedConfig(disks, indexM, 0.95)
		cfg.Clients = 4
		cfg.ClientTxns, cfg.MeasureFrom = 100, 25
		return cfg
	}
	a, err := Run(shape(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shape(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of one multi-client airsched config differ")
	}
	if a.DozedFrames == 0 {
		t.Error("an indexed multi-client run must doze")
	}
	flat, err := Run(shape(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if at, ft := a.TuningFrames.Mean(), flat.TuningFrames.Mean(); !(at > 0 && at < ft) {
		t.Errorf("tuning per transaction: 3 disks + (1,8) index %.2f frames, flat %.2f — want fewer, and measured", at, ft)
	}
}

// Zipf selection must actually skew the workload toward low object ids.
func TestZipfPickSkew(t *testing.T) {
	cfg := airschedConfig(2, 0, 0.95)
	cfg.ClientTxns = 300
	cfg.MeasureFrom = 100
	cfg.Audit = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lowHalf, total := 0, 0
	for _, rs := range r.CommittedReadSets {
		for _, ra := range rs {
			total++
			if ra.Obj < cfg.Objects/2 {
				lowHalf++
			}
		}
	}
	if total == 0 {
		t.Fatal("no committed read-sets audited")
	}
	if frac := float64(lowHalf) / float64(total); frac < 0.7 {
		t.Errorf("only %.0f%% of zipf(0.95) reads hit the hot half, want well above uniform 50%%", frac*100)
	}
}

// A missed read retries from the boundary that closes the missed cycle,
// which the timeline counts into that cycle: for the object whose frame
// closes the major cycle the retry must still land in a later one, or
// the read never completes.
func TestAirschedRetryLandsInLaterCycle(t *testing.T) {
	for _, disks := range []int{1, 2, 3} {
		for _, indexM := range []int{0, 1, 4} {
			e, err := newEngine(airschedConfig(disks, indexM, 0.95))
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < e.cfg.Objects; j++ {
				for c := int64(1); c <= 3; c++ {
					at := e.retryAfter(c, j)
					if _, got := e.timeline.NextReady(at, j); got <= c {
						t.Fatalf("disks=%d index=%d: object %d missed in cycle %d is retried at %v, back in cycle %d",
							disks, indexM, j, c, at, got)
					}
				}
			}
		}
	}
}

// The run that found it: the first missed read of object 39, the last
// frame of the flat program, spun forever without advancing the clock,
// so MaxTime never tripped either.
func TestAirschedRetryTerminates(t *testing.T) {
	cfg := smallConfig(protocol.FMatrix)
	cfg.ZipfTheta = 0.95
	cfg.Disks = 1
	cfg.IndexM = 1
	cfg.FaultLoss = 0.1
	cfg.FaultSeed = 5
	cfg.MaxTime = 1e12
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return: a missed read is being retried inside the cycle it missed")
	}
}
