package sim

import (
	"fmt"
	"testing"

	"broadcastcc/internal/protocol"
)

// benchWheelConfig is the scale-study shape: compact RNG, a short
// per-client workload (every extra transaction is n more event chains),
// the default Table 1 database scaled to 1000 objects.
func benchWheelConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = protocol.FMatrix
	cfg.Objects = 1000
	cfg.Clients = n
	cfg.ClientTxns = 3
	cfg.MeasureFrom = 1
	cfg.CompactRNG = true
	return cfg
}

// BenchmarkEventWheel runs the full multi-client simulation at scale.
// It reports events/sec (an event is one client read completion or
// uplink arrival) and allocs/event measured with AllocsPerRun — the
// number that must stay pinned near zero for 10^6 clients to be
// affordable; what remains is setup (flat arrays, one read-set backing
// array per client), the server's transactions and per-cycle
// publication, never per-event garbage. CI's bench smoke runs the clients=10000 point once; all
// three with:
//
//	go test -run '^$' -bench EventWheel -benchtime 1x ./internal/sim/
func BenchmarkEventWheel(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			cfg := benchWheelConfig(n)
			events := float64(cfg.Clients * cfg.ClientTxns * (cfg.ClientTxnLength + 1))

			allocs := testing.AllocsPerRun(1, func() {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			})

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Restarts.N() == 0 {
					b.Fatal("degenerate run: no measured transactions")
				}
			}
			b.StopTimer()
			// ResetTimer clears previously reported metrics, so both
			// land here, after the timed loop.
			b.ReportMetric(allocs/events, "allocs/event")
			b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
