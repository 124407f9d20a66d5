package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"broadcastcc/internal/dgram"
	"broadcastcc/internal/faultair"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// The wire study measures what the connectionless datapath is for:
//
//   - Scaling: server egress per broadcast cycle as the audience grows.
//     The TCP reference retransmits every frame per subscriber, so its
//     bytes/cycle are linear in the subscriber count; the datagram
//     carrier transmits each frame exactly once per channel, so its
//     bytes/cycle are a flat line — the paper's broadcast asymmetry
//     made concrete at the transport layer. Both series are read off
//     the live obs counters (netcast_tx_bytes, dgram_tx_bytes) of a
//     real netcast server with real TCP tuners attached.
//
//   - Recovery: frame delivery under packet loss with and without the
//     systematic FEC repair packets, swept over the loss rate. The
//     recovery ratio — loss-hit frames completed through
//     reconstruction over all loss-hit frames — is the figure the
//     repair budget is sized by.

// WireConfig shapes a WireStudy run. The zero value means the full-size
// run; tests shrink every field.
type WireConfig struct {
	// Objects is the database size n of the scaling study's server.
	Objects int
	// Cycles is the broadcast run length of both studies.
	Cycles int
	// CommitsPerCycle is the scaling study's server update rate.
	CommitsPerCycle int
	// Subscribers are the x-values of the scaling study.
	Subscribers []int
	// LossRates are the x-values of the recovery study.
	LossRates []float64
	// FramesPerCycle is the recovery study's synthetic frame count.
	FramesPerCycle int
}

// wireFECRepair is the carrier's repair packets per FEC group; the MTU
// and the data packets per group are the dgram defaults (1400 bytes, 4).
// The study's acceptance bar — recover >= 95% of loss-hit frames at 10%
// packet loss — needs the full repair budget: with the carrier default
// (4+2) a K-group survives two erasures and 10% loss kills ~9% of
// loss-hit frames; 4+3 takes that under 2%.
const wireFECRepair = 3

func (c WireConfig) normalized() WireConfig {
	if c.Objects == 0 {
		c.Objects = 64
	}
	if c.Cycles == 0 {
		c.Cycles = 40
	}
	if c.CommitsPerCycle == 0 {
		c.CommitsPerCycle = 4
	}
	if len(c.Subscribers) == 0 {
		c.Subscribers = []int{1, 2, 4, 8, 16, 32}
	}
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0.02, 0.05, 0.10, 0.20}
	}
	if c.FramesPerCycle == 0 {
		c.FramesPerCycle = 8
	}
	return c
}

// Series labels of the wire figures.
const (
	WireSeriesTCP   = "tcp"
	WireSeriesUDP   = "udp"
	WireSeriesFEC   = "fec"
	WireSeriesNoFEC = "no-fec"
)

// WireScalingPoint is one subscriber count of the scaling study. Both
// transports carried the identical cycle stream of one shared server.
type WireScalingPoint struct {
	Subscribers int
	// TCPBytesPerCycle is netcast_tx_bytes (per-subscriber socket
	// egress, framing included) over the run's cycles.
	TCPBytesPerCycle float64
	// UDPBytesPerCycle is dgram_tx_bytes (datagrams, FEC repair
	// included, transmitted once regardless of audience) over cycles.
	UDPBytesPerCycle float64
	// FramesRx counts frames decoded across all datagram listeners — a
	// liveness check that the flat line is not a dead carrier.
	FramesRx int64
	// Obs is the point's registry snapshot.
	Obs obs.Snapshot
}

// WireFECMetrics is one series' measurements at one loss rate.
type WireFECMetrics struct {
	// DeliveredRatio is frames delivered over frames transmitted.
	DeliveredRatio float64
	// RecoveryRatio is repaired / (repaired + lost): of the frames that
	// needed more than plain reception, the share FEC brought back.
	// 1 when no frame was ever at risk.
	RecoveryRatio float64
	FramesTx      int64
	FramesRx      int64
	Repaired      int64
	Lost          int64
	RepairTx      int64
	Obs           obs.Snapshot
}

// WireFECPoint is one loss rate with both series.
type WireFECPoint struct {
	Loss   float64
	Series map[string]WireFECMetrics
}

// WireAnalysis is the study's full result: the TX-scaling sweep and the
// FEC-recovery sweep.
type WireAnalysis struct {
	Scaling []WireScalingPoint
	FEC     []WireFECPoint
}

// runWireScalingPoint boots a real netcast server with subs TCP tuners
// and subs datagram taps on a loopback-simulated medium, steps the
// workload, and reads both egress counters.
func runWireScalingPoint(cfg WireConfig, seed int64, subs int) (WireScalingPoint, error) {
	reg := obs.NewRegistry()
	bsrv, err := server.New(server.Config{Objects: cfg.Objects, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		return WireScalingPoint{}, err
	}
	defer bsrv.Close()
	ns, err := netcast.ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", netcast.Options{Obs: reg})
	if err != nil {
		return WireScalingPoint{}, err
	}
	defer ns.Close()

	dcfg := dgram.Config{Channel: 1, FECRepair: wireFECRepair}
	car := dgram.NewSimCarrier()
	defer car.Close()
	sender, err := dgram.NewSender(car, dcfg, reg)
	if err != nil {
		return WireScalingPoint{}, err
	}
	ns.AttachDatagram(sender)

	for i := 0; i < subs; i++ {
		tn, err := netcast.Tune(ns.BroadcastAddr())
		if err != nil {
			return WireScalingPoint{}, err
		}
		defer tn.Close()
		dt, err := netcast.TuneDatagram(car.Tap(i, nil, 1<<14), dcfg, reg)
		if err != nil {
			return WireScalingPoint{}, err
		}
		defer dt.Close()
	}
	deadline := time.Now().Add(20 * time.Second)
	for ns.Subscribers() < subs {
		if time.Now().After(deadline) {
			return WireScalingPoint{}, fmt.Errorf("experiments: %d of %d TCP subscribers connected", ns.Subscribers(), subs)
		}
		time.Sleep(time.Millisecond)
	}

	rng := rand.New(rand.NewSource(seed))
	for c := 1; c <= cfg.Cycles; c++ {
		for k := 0; k < cfg.CommitsPerCycle; k++ {
			txn := bsrv.Begin()
			txn.Read(rng.Intn(cfg.Objects))
			if err := txn.Write(rng.Intn(cfg.Objects), []byte{byte(c), byte(k)}); err != nil {
				return WireScalingPoint{}, err
			}
			if err := txn.Commit(); err != nil && !errors.Is(err, server.ErrConflict) {
				return WireScalingPoint{}, err
			}
		}
		if _, err := ns.Step(); err != nil {
			return WireScalingPoint{}, err
		}
	}
	// Let the datagram tuners drain the medium before snapshotting the
	// receive counters (the TX counters are already final): every tap
	// received every frame — the medium is perfect and its buffers are
	// larger than the whole transmission — so decode must converge.
	car.Settle()
	wantRx := int64(cfg.Cycles * subs)
	for reg.Counter(dgram.CtrFramesRx).Load() < wantRx {
		if time.Now().After(deadline) {
			return WireScalingPoint{}, fmt.Errorf("experiments: datagram listeners decoded %d of %d frames",
				reg.Counter(dgram.CtrFramesRx).Load(), wantRx)
		}
		time.Sleep(time.Millisecond)
	}

	return WireScalingPoint{
		Subscribers:      subs,
		TCPBytesPerCycle: float64(reg.Counter("netcast_tx_bytes").Load()) / float64(cfg.Cycles),
		UDPBytesPerCycle: float64(reg.Counter(dgram.CtrTxBytes).Load()) / float64(cfg.Cycles),
		FramesRx:         reg.Counter(dgram.CtrFramesRx).Load(),
		Obs:              reg.Snapshot(),
	}, nil
}

// runWireFECPoint pushes a deterministic synthetic frame stream through
// a lossy simulated medium and measures delivery with the configured
// repair budget (fec) or with repair packets disabled (no-fec).
func runWireFECPoint(cfg WireConfig, seed int64, loss float64, fec bool) (WireFECMetrics, error) {
	dcfg := dgram.Config{Channel: 2, FECRepair: wireFECRepair}
	if !fec {
		dcfg.FECRepair = -1
	}
	reg := obs.NewRegistry()
	car := dgram.NewSimCarrier()
	defer car.Close()
	var sched dgram.PacketFates
	if loss > 0 {
		sched = faultair.NewPacketSchedule(faultair.PacketProfile{Loss: loss, Seed: seed})
	}
	tap := car.Tap(0, sched, 1<<16)
	s, err := dgram.NewSender(car, dcfg, reg)
	if err != nil {
		return WireFECMetrics{}, err
	}
	ra, err := dgram.NewReassembler(dcfg, reg)
	if err != nil {
		return WireFECMetrics{}, err
	}

	chunk := s.Config().MTU // frame sizes span sub-MTU to several shards
	rng := rand.New(rand.NewSource(seed))
	for c := 1; c <= cfg.Cycles; c++ {
		frames := make([][]byte, cfg.FramesPerCycle)
		for i := range frames {
			f := make([]byte, 1+rng.Intn(3*chunk))
			rng.Read(f)
			frames[i] = f
		}
		if err := s.SendCycle(int64(c), frames); err != nil {
			return WireFECMetrics{}, err
		}
	}
	car.Close()
	for {
		pkt, err := tap.Recv()
		if err != nil {
			break
		}
		ra.Ingest(pkt)
	}
	ra.Flush()

	m := WireFECMetrics{
		FramesTx: reg.Counter(dgram.CtrFramesTx).Load(),
		FramesRx: reg.Counter(dgram.CtrFramesRx).Load(),
		Repaired: reg.Counter(dgram.CtrFramesRepaired).Load(),
		Lost:     reg.Counter(dgram.CtrFramesLost).Load(),
		RepairTx: reg.Counter(dgram.CtrRepairTx).Load(),
		Obs:      reg.Snapshot(),
	}
	if m.FramesTx > 0 {
		m.DeliveredRatio = float64(m.FramesRx) / float64(m.FramesTx)
	}
	if atRisk := m.Repaired + m.Lost; atRisk > 0 {
		m.RecoveryRatio = float64(m.Repaired) / float64(atRisk)
	} else {
		m.RecoveryRatio = 1
	}
	return m, nil
}

// WireStudy runs both sweeps. Every point is seeded purely by its
// configuration, so results are deterministic.
func WireStudy(opt Options, cfg WireConfig) (*WireAnalysis, error) {
	opt = opt.normalized()
	cfg = cfg.normalized()
	a := &WireAnalysis{}
	for _, subs := range cfg.Subscribers {
		if subs < 1 {
			return nil, fmt.Errorf("experiments: subscriber count %d", subs)
		}
		p, err := runWireScalingPoint(cfg, opt.Seed, subs)
		if err != nil {
			return nil, err
		}
		a.Scaling = append(a.Scaling, p)
		opt.Progress("wire: subs=%d tcp=%.0f B/cycle udp=%.0f B/cycle",
			subs, p.TCPBytesPerCycle, p.UDPBytesPerCycle)
	}
	for _, loss := range cfg.LossRates {
		if loss < 0 || loss >= 1 {
			return nil, fmt.Errorf("experiments: loss rate %g out of [0,1)", loss)
		}
		on, err := runWireFECPoint(cfg, opt.Seed, loss, true)
		if err != nil {
			return nil, err
		}
		off, err := runWireFECPoint(cfg, opt.Seed, loss, false)
		if err != nil {
			return nil, err
		}
		a.FEC = append(a.FEC, WireFECPoint{
			Loss:   loss,
			Series: map[string]WireFECMetrics{WireSeriesFEC: on, WireSeriesNoFEC: off},
		})
		opt.Progress("wire: loss=%.0f%% fec delivered=%.4f recovered=%.4f, no-fec delivered=%.4f",
			loss*100, on.DeliveredRatio, on.RecoveryRatio, off.DeliveredRatio)
	}
	return a, nil
}

// WireTable renders both sweeps as aligned tables.
func WireTable(a *WireAnalysis) string {
	var b strings.Builder
	b.WriteString("Wire throughput: server egress per cycle vs audience size\n")
	fmt.Fprintf(&b, "%-13s%-18s%-18s%s\n", "subscribers", "tcp B/cycle", "udp B/cycle", "udp frames rx")
	for _, p := range a.Scaling {
		fmt.Fprintf(&b, "%-13d%-18.0f%-18.0f%d\n",
			p.Subscribers, p.TCPBytesPerCycle, p.UDPBytesPerCycle, p.FramesRx)
	}
	b.WriteString("\nFEC frame recovery vs packet loss\n")
	fmt.Fprintf(&b, "%-9s%-9s%-13s%-13s%-16s%s\n",
		"loss", "series", "delivered", "recovered", "repaired/lost", "repair pkts")
	for _, p := range a.FEC {
		for _, lbl := range []string{WireSeriesFEC, WireSeriesNoFEC} {
			m := p.Series[lbl]
			fmt.Fprintf(&b, "%-9.2f%-9s%-13.4f%-13.4f%-16s%d\n",
				p.Loss, lbl, m.DeliveredRatio, m.RecoveryRatio,
				fmt.Sprintf("%d/%d", m.Repaired, m.Lost), m.RepairTx)
		}
	}
	return b.String()
}

// WireBench projects the analysis into the shared benchmark schema as
// two figures: the egress scaling (x = subscribers) and "wirefec" (x =
// loss rate).
func WireBench(a *WireAnalysis) (scaling, fec BenchExperiment) {
	scaling = project(BenchExperiment{
		ID:     idWire,
		Title:  "Server egress per cycle vs audience size",
		XLabel: "TCP subscribers / datagram taps",
		Metric: "bytes per cycle",
		Labels: []string{WireSeriesTCP, WireSeriesUDP},
	}, a.Scaling,
		func(p WireScalingPoint) float64 { return float64(p.Subscribers) },
		// Both series ran against one registry; the point's snapshot
		// rides on the udp series alone so it merges once.
		func(p WireScalingPoint, lbl string) BenchMetrics {
			if lbl == WireSeriesTCP {
				return BenchMetrics{Values: map[string]float64{"bytes_per_cycle": p.TCPBytesPerCycle}}
			}
			return BenchMetrics{Values: map[string]float64{"bytes_per_cycle": p.UDPBytesPerCycle}, Obs: &p.Obs}
		})
	fec = project(BenchExperiment{
		ID:     "wirefec",
		Title:  "FEC frame recovery vs packet loss",
		XLabel: "packet loss rate",
		Metric: "delivered ratio",
		Labels: []string{WireSeriesFEC, WireSeriesNoFEC},
	}, a.FEC,
		func(p WireFECPoint) float64 { return p.Loss },
		func(p WireFECPoint, lbl string) BenchMetrics {
			m := p.Series[lbl]
			return BenchMetrics{
				Values: map[string]float64{
					"delivered_ratio": m.DeliveredRatio,
					"recovery_ratio":  m.RecoveryRatio,
				},
				Obs: &m.Obs,
			}
		})
	return scaling, fec
}
