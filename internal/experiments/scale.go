package experiments

import (
	"fmt"
	"strings"

	"broadcastcc/internal/protocol"
	"broadcastcc/internal/sim"
)

// The scale study is the million-client headline: the paper argues the
// protocols' read-only validation is purely client-local ("independent
// of the number of clients"), so the restart ratio should hold flat as
// the audience grows by orders of magnitude. The event-wheel engine
// with compact per-client RNG state makes that measurable — each point
// runs the full multi-client simulation with every client individually
// modelled, not sampled.

// ScaleConfig shapes a ScaleStudy run. The zero value means the
// defaults; tests shrink every field. Each client's first transaction
// is warmup and never measured.
type ScaleConfig struct {
	// Clients are the x-values of the sweep. Every count must be >= 1.
	Clients []int
	// Algorithms are the series (default Datacycle, R-Matrix, F-Matrix).
	Algorithms []protocol.Algorithm
	// Txns is the per-client transaction count (default 3 — at 10^6
	// clients each extra transaction is five million more events).
	Txns int
	// Objects is the database size (default 1000).
	Objects int
	// Seed seeds every run (default 1).
	Seed int64
}

func (c ScaleConfig) normalized() ScaleConfig {
	if len(c.Clients) == 0 {
		c.Clients = []int{10_000, 100_000, 1_000_000}
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []protocol.Algorithm{protocol.Datacycle, protocol.RMatrix, protocol.FMatrix}
	}
	if c.Txns == 0 {
		c.Txns = 3
	}
	if c.Objects == 0 {
		c.Objects = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScaleStudy sweeps the client count per algorithm on the event-wheel
// engine (CompactRNG — two words of generator state per client) and
// reports the restart ratio at each scale. Points run sequentially so
// peak memory is one simulation, not the whole sweep.
func ScaleStudy(sc ScaleConfig, progress func(format string, args ...any)) (BenchExperiment, error) {
	sc = sc.normalized()
	if progress == nil {
		progress = func(string, ...any) {}
	}
	head := BenchExperiment{
		ID:     idScale,
		Title:  "Restart ratio vs client count (event-wheel engine)",
		XLabel: "clients",
		Metric: "restart ratio",
	}
	for _, alg := range sc.Algorithms {
		head.Labels = append(head.Labels, alg.String())
	}
	for _, n := range sc.Clients {
		if n < 1 {
			return BenchExperiment{}, fmt.Errorf("experiments: scale study needs every client count >= 1, got %d", n)
		}
		if n > sim.MaxClients {
			return BenchExperiment{}, fmt.Errorf("experiments: scale study client count %d exceeds sim.MaxClients = %d", n, sim.MaxClients)
		}
	}

	var points []BenchPoint
	for _, n := range sc.Clients {
		pt := BenchPoint{X: float64(n), Series: map[string]BenchMetrics{}}
		for _, alg := range sc.Algorithms {
			cfg := sim.DefaultConfig()
			cfg.Algorithm = alg
			cfg.Objects = sc.Objects
			cfg.Clients = n
			cfg.ClientTxns = sc.Txns
			cfg.MeasureFrom = 1
			cfg.Seed = sc.Seed
			cfg.CompactRNG = true
			res, err := sim.Run(cfg)
			if err != nil {
				return BenchExperiment{}, fmt.Errorf("scale n=%d %s: %w", n, alg, err)
			}
			bm := benchMetrics(metricsOf(res))
			bm.Values = map[string]float64{
				"events":         float64(n) * float64(sc.Txns) * float64(cfg.ClientTxnLength+1),
				"client_commits": float64(res.ClientCommits),
				"uplink_rejects": float64(res.UplinkRejects),
			}
			pt.Series[alg.String()] = bm
			progress("scale n=%d %s: restart ratio %.4f (%d cycles)", n, alg, res.RestartRatio, res.CyclesSimulated)
		}
		points = append(points, pt)
	}
	return project(head, points,
		func(p BenchPoint) float64 { return p.X },
		func(p BenchPoint, lbl string) BenchMetrics { return p.Series[lbl] }), nil
}

// ScaleTable renders the study for the console: client counts down,
// one restart-ratio (and commit-count) column pair per algorithm.
func ScaleTable(e BenchExperiment) string {
	var b strings.Builder
	b.WriteString(e.Title + "\n")
	fmt.Fprintf(&b, "%-12s", e.XLabel)
	for _, lbl := range e.Labels {
		fmt.Fprintf(&b, "%-12s%-14s", lbl, "(commits)")
	}
	b.WriteString("\n")
	for _, p := range e.Points {
		fmt.Fprintf(&b, "%-12.0f", p.X)
		for _, lbl := range e.Labels {
			m := p.Series[lbl]
			ratio := "n/a"
			if m.RestartRatio != nil {
				ratio = fmt.Sprintf("%.4f", *m.RestartRatio)
			}
			fmt.Fprintf(&b, "%-12s%-14s", ratio, fmt.Sprintf("(%d)", m.Commits))
		}
		b.WriteString("\n")
	}
	return b.String()
}
