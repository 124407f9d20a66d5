package experiments

import "testing"

// Benchmarks for the bench-smoke CI job: one -benchtime=1x pass runs
// every sweep end to end at reduced scale, catching performance cliffs
// and outright breakage in the harness without a full paper-scale run.

func benchSweep(b *testing.B, id string, metric Metric) {
	opt := quick()
	opt.Txns = 60
	opt.MeasureFrom = 20
	var last float64
	for i := 0; i < b.N; i++ {
		e, err := ByID(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		pt := e.Points[len(e.Points)-1]
		last = metric.value(pt.Runs[e.Labels[len(e.Labels)-1]])
	}
	b.ReportMetric(last, "last-point")
}

// BenchmarkAirschedSweep: tuning time vs zipf skew, flat vs 3-disk
// indexed program.
func BenchmarkAirschedSweep(b *testing.B) {
	benchSweep(b, "airsched", TuningFrames)
}

// BenchmarkAirschedDisksSweep: tuning time vs disk count at θ=0.95.
func BenchmarkAirschedDisksSweep(b *testing.B) {
	benchSweep(b, "airdisks", TuningFrames)
}

// BenchmarkFigure2aSweep: the classic response-time sweep through the
// same harness, so the smoke covers algorithm series as well as
// config-variant series.
func BenchmarkFigure2aSweep(b *testing.B) {
	benchSweep(b, "2a", ResponseTime)
}
