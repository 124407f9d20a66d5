package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"broadcastcc"
	"broadcastcc/internal/bctest"
	"broadcastcc/internal/client"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/obs"
)

// soakConfig parameterizes one soak run. The zero value is invalid;
// start from defaultSoakConfig.
type soakConfig struct {
	Duration    time.Duration
	Interval    time.Duration
	Objects     int
	Tuners      int
	UDPClients  int
	Writers     int
	ChurnEvery  time.Duration
	ScrapeEvery time.Duration
	ReadsPerTxn int
	Workload    float64
	WorkloadLen int
	P99Bound    time.Duration
	LossBudget  float64
	Timeline    string
	Seed        int64
	// CacheCurrency > 0 gives every TCP tuner a weak-currency cache
	// with that bound (capped at CacheSize entries), so the nightly
	// soak exercises the cached read path — mixed-cycle validation,
	// local invalidation — under churn and real sockets.
	CacheCurrency int64
	CacheSize     int
}

func defaultSoakConfig() soakConfig {
	return soakConfig{
		Duration:    30 * time.Second,
		Interval:    20 * time.Millisecond,
		Objects:     256,
		Tuners:      40,
		UDPClients:  8,
		Writers:     4,
		ChurnEvery:  500 * time.Millisecond,
		ScrapeEvery: 2 * time.Second,
		ReadsPerTxn: 4,
		Workload:    50,
		WorkloadLen: 8,
		// Loopback uplink commits take microseconds; the bound exists
		// to catch orders-of-magnitude pathology (a stuck commit path,
		// lock convoy), with headroom for a loaded CI machine.
		P99Bound: time.Second,
		// Loopback UDP is lossless in principle, but kernel socket
		// buffers drop under burst pressure; budget a little.
		LossBudget: 0.05,
		Seed:       1,
	}
}

func (c soakConfig) validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("soak: Duration = %v, need > 0", c.Duration)
	case c.Interval <= 0:
		return fmt.Errorf("soak: Interval = %v, need > 0", c.Interval)
	case c.ScrapeEvery <= 0:
		return fmt.Errorf("soak: ScrapeEvery = %v, need > 0", c.ScrapeEvery)
	case c.Tuners < 1:
		return fmt.Errorf("soak: Tuners = %d, need at least one tuner to soak", c.Tuners)
	case c.UDPClients < 0 || c.Writers < 0:
		return fmt.Errorf("soak: UDPClients = %d and Writers = %d must be non-negative", c.UDPClients, c.Writers)
	case c.ReadsPerTxn < 1 || c.ReadsPerTxn > c.Objects:
		return fmt.Errorf("soak: ReadsPerTxn = %d, need 1..Objects (%d)", c.ReadsPerTxn, c.Objects)
	case c.Workload < 0 || c.WorkloadLen < 1:
		return fmt.Errorf("soak: Workload = %g and WorkloadLen = %d must be positive", c.Workload, c.WorkloadLen)
	case c.LossBudget < 0 || c.LossBudget > 1:
		return fmt.Errorf("soak: LossBudget = %g, need [0,1]", c.LossBudget)
	case c.CacheCurrency < 0 || c.CacheSize < 0:
		return fmt.Errorf("soak: CacheCurrency = %d and CacheSize = %d must be non-negative", c.CacheCurrency, c.CacheSize)
	case c.P99Bound <= 0:
		return fmt.Errorf("soak: P99Bound = %v, need > 0", c.P99Bound)
	}
	return nil
}

// timelinePoint is one JSONL record of the -timeline artifact.
type timelinePoint struct {
	ElapsedSec float64      `json:"elapsed_sec"`
	Txns       int64        `json:"txns"`
	Rejects    int64        `json:"uplink_rejects"`
	Snapshot   obs.Snapshot `json:"snapshot"`
}

// runSoak drives the whole soak and returns the first invariant
// violation (or infrastructure error). Split from main so the harness
// is testable end to end.
func runSoak(cfg soakConfig, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := cfg.validate(); err != nil {
		return err
	}

	// In-process server with the netcast layer on real sockets: the
	// soak exercises the same wire path bcserver serves in production.
	trace := broadcastcc.NewObsTracer(4096)
	srv, err := broadcastcc.NewServer(broadcastcc.ServerConfig{
		Objects:       cfg.Objects,
		ObjectBits:    512,
		TimestampBits: 8,
		Algorithm:     broadcastcc.FMatrix,
		Obs:           broadcastcc.NewObsRegistry(),
		Trace:         trace,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ns, err := netcast.ServeOptions(srv, "127.0.0.1:0", "127.0.0.1:0", netcast.Options{})
	if err != nil {
		return err
	}
	defer ns.Close()

	// The UDP leg: one bound source receiving the server's datagram
	// transmission; every UDP reader subscribes to the one datagram
	// tuner (a second bind on the same port is impossible anyway).
	src, err := broadcastcc.ListenUDPSource("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer src.Close()
	car, err := broadcastcc.DialUDPCarrier(src.LocalAddr().String())
	if err != nil {
		return err
	}
	defer car.Close()
	dcfg := broadcastcc.DatagramConfig{Channel: 1}
	sender, err := broadcastcc.NewDatagramSender(car, dcfg, srv.Obs())
	if err != nil {
		return err
	}
	ns.AttachDatagram(sender)
	clientReg := broadcastcc.NewObsRegistry()
	dt, err := broadcastcc.TuneDatagram(src, dcfg, clientReg)
	if err != nil {
		return err
	}
	defer dt.Close()

	// Two live obs endpoints, scraped over real HTTP like a monitoring
	// stack would. The netcast layer shares the server's registry, so
	// the server document carries server_*, netcast_* and dgram_* (tx).
	serverLn, err := broadcastcc.ServeObs("127.0.0.1:0", srv.Obs(), trace)
	if err != nil {
		return err
	}
	defer serverLn.Close()
	clientLn, err := broadcastcc.ServeObs("127.0.0.1:0", clientReg, broadcastcc.NewObsTracer(64))
	if err != nil {
		return err
	}
	defer clientLn.Close()
	serverURL := "http://" + serverLn.Addr().String()
	clientURL := "http://" + clientLn.Addr().String()
	logf("soak: broadcast %s uplink %s udp %s obs %s + %s",
		ns.BroadcastAddr(), ns.UplinkAddr(), src.LocalAddr(), serverLn.Addr(), clientLn.Addr())

	stopLoad := make(chan struct{}) // workload, churn, writers
	stopTick := make(chan struct{}) // broadcast ticker, closed last
	go ns.RunTicker(cfg.Interval, stopTick)

	var wg sync.WaitGroup
	var txns, rejects atomic.Int64
	errc := make(chan error, cfg.Tuners+cfg.UDPClients+cfg.Writers+2)
	var conns []io.Closer // TCP tuners + uplinks, closed before the drain

	if cfg.Workload > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorkload(srv, cfg, stopLoad)
		}()
	}

	// Read-only tuner loops: every committed transaction reads
	// ReadsPerTxn random objects under the F-Matrix read condition,
	// restarting (client_restarts) on inconsistency until it commits.
	readerLoop := func(cli *broadcastcc.Client, rng *rand.Rand) {
		defer wg.Done()
		for {
			if _, ok := cli.AwaitCycle(); !ok {
				return
			}
			_, err := cli.RunReadOnly(0, func(txn *broadcastcc.ReadTxn) error {
				for k := 0; k < cfg.ReadsPerTxn; k++ {
					if _, err := txn.Read(rng.Intn(cfg.Objects)); err != nil {
						return err
					}
				}
				return nil
			})
			switch {
			case errors.Is(err, client.ErrTunedOut):
				return
			case err != nil:
				errc <- fmt.Errorf("reader: %w", err)
				return
			}
			txns.Add(1)
		}
	}
	for i := 0; i < cfg.Tuners; i++ {
		t, err := broadcastcc.Tune(ns.BroadcastAddr())
		if err != nil {
			return err
		}
		conns = append(conns, t)
		cli := broadcastcc.NewClient(broadcastcc.ClientConfig{
			Algorithm:     broadcastcc.FMatrix,
			CacheCurrency: broadcastcc.Cycle(cfg.CacheCurrency),
			CacheSize:     cfg.CacheSize,
			Obs:           clientReg,
		}, t.Subscribe(8))
		wg.Add(1)
		go readerLoop(cli, rand.New(rand.NewSource(cfg.Seed+int64(i))))
	}
	for i := 0; i < cfg.UDPClients; i++ {
		cli := broadcastcc.NewClient(broadcastcc.ClientConfig{Algorithm: broadcastcc.FMatrix, Obs: clientReg}, dt.Subscribe(8))
		wg.Add(1)
		go readerLoop(cli, rand.New(rand.NewSource(cfg.Seed+1000+int64(i))))
	}

	// Uplink writers: read-modify-write one object per cycle; server
	// rejections under contention are the expected outcome, not an
	// error. These fill netcast_uplink_ns.
	for i := 0; i < cfg.Writers; i++ {
		t, err := broadcastcc.Tune(ns.BroadcastAddr())
		if err != nil {
			return err
		}
		conns = append(conns, t)
		uplink, err := broadcastcc.DialUplink(ns.UplinkAddr())
		if err != nil {
			return err
		}
		conns = append(conns, uplink)
		cli := broadcastcc.NewClient(broadcastcc.ClientConfig{Algorithm: broadcastcc.FMatrix, Obs: clientReg}, t.Subscribe(8))
		wg.Add(1)
		go func(id int, rng *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				if _, ok := cli.AwaitCycle(); !ok {
					return
				}
				txn := cli.BeginUpdate()
				obj := rng.Intn(cfg.Objects)
				if _, err := txn.Read(obj); err != nil {
					if errors.Is(err, broadcastcc.ErrInconsistentRead) {
						continue
					}
					errc <- fmt.Errorf("writer %d read: %w", id, err)
					return
				}
				if err := txn.Write(obj, []byte(fmt.Sprintf("w%d", id))); err != nil {
					errc <- fmt.Errorf("writer %d write: %w", id, err)
					return
				}
				if err := txn.Commit(uplink); err != nil {
					rejects.Add(1)
				}
			}
		}(i, rand.New(rand.NewSource(cfg.Seed+2000+int64(i))))
	}

	// Churn: repeatedly tune a throwaway subscriber and drop it, so
	// subs_added/subs_dropped keep moving and the balance invariant is
	// tested against a live add/drop stream, not a static population.
	if cfg.ChurnEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(cfg.ChurnEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopLoad:
					return
				case <-tick.C:
				}
				t, err := broadcastcc.Tune(ns.BroadcastAddr())
				if err != nil {
					continue // shutdown race; the next tick retries
				}
				_ = t.Subscribe(1)
				select {
				case <-stopLoad:
				case <-time.After(2 * cfg.Interval):
				}
				t.Close()
			}
		}()
	}

	// Shutdown runs in invariant-preserving order: stop the load,
	// close the TCP legs, let the still-ticking server reap them (the
	// UDP socket must outlive this drain: a datagram send error makes
	// Step return before the subscriber loop), then stop the ticker.
	// The datagram tuner is closed by the deferred dt.Close, which
	// unblocks the UDP readers for the final wg.Wait.
	var shutOnce sync.Once
	shutdown := func() {
		shutOnce.Do(func() {
			close(stopLoad)
			for _, c := range conns {
				c.Close()
			}
			for i := 0; i < 200 && ns.Subscribers() > 0; i++ {
				time.Sleep(cfg.Interval)
			}
			close(stopTick)
			dt.Close()
			src.Close()
			wg.Wait()
		})
	}
	defer shutdown()

	var timeline *os.File
	if cfg.Timeline != "" {
		timeline, err = os.Create(cfg.Timeline)
		if err != nil {
			return err
		}
		defer timeline.Close()
	}

	// The analytic restart model (Section 4's conflict analysis):
	// UpdatesPerCycle is self-calibrated from the scraped counters;
	// WritesPerUpdate conservatively assumes every workload operation
	// wrote. Slack 4 still catches an order-of-magnitude divergence.
	model := bctest.RestartModel{
		WritesPerUpdate: float64(cfg.WorkloadLen),
		Objects:         cfg.Objects,
		TxnReads:        cfg.ReadsPerTxn,
		CyclesPerTxn:    2,
		Slack:           4,
	}
	// Churn subscribers are reaped lazily (at the next Step's write
	// failure), so a closed one can briefly coexist with its successor.
	maxLive := int64(cfg.Tuners + cfg.Writers + 3)

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	tick := time.NewTicker(cfg.ScrapeEvery)
	defer tick.Stop()
	// At least two live scrapes even when a loaded machine stretches
	// each one past ScrapeEvery — one point is not a timeline.
	scrapes := 0
	for scrapes < 2 || time.Now().Before(deadline) {
		select {
		case err := <-errc:
			return err
		case <-tick.C:
		}
		merged, err := scrapeBoth(serverURL, clientURL)
		if err != nil {
			return err
		}
		scrapes++
		if timeline != nil {
			pt := timelinePoint{
				ElapsedSec: time.Since(start).Seconds(),
				Txns:       txns.Load(),
				Rejects:    rejects.Load(),
				Snapshot:   merged,
			}
			if err := json.NewEncoder(timeline).Encode(pt); err != nil {
				return fmt.Errorf("soak: timeline: %w", err)
			}
		}
		if err := checkInvariants(merged, cfg, model, maxLive, txns.Load()); err != nil {
			var v *bctest.InvariantViolation
			if errors.As(err, &v) && v.Name == "dgram-loss-bound" {
				err = fmt.Errorf("%w (%s)", err, udpDrops(src.LocalAddr(), car.LocalAddr()))
			}
			return fmt.Errorf("soak: scrape %d (t=%v): %w", scrapes, time.Since(start).Round(time.Millisecond), err)
		}
		if scrapes == 1 {
			if err := checkTrace(serverURL + "/trace"); err != nil {
				return err
			}
		}
		logf("soak: t=%v cycles=%d commits=%d txns=%d restarts=%d subs=%d rejects=%d",
			time.Since(start).Round(time.Second),
			merged.Counters["server_cycles"], merged.Counters["server_commits"],
			txns.Load(), merged.Counters["client_restarts"],
			merged.Gauges["netcast_subscribers"], rejects.Load())
	}

	// Drain and re-scrape: with every tuner gone, the subscriber
	// accounting must return exactly to zero — the leak check nobody
	// passes by luck.
	shutdown()
	final, err := scrapeBoth(serverURL, clientURL)
	if err != nil {
		return err
	}
	if err := bctest.CheckSubscriberBalance(final, 0); err != nil {
		return fmt.Errorf("soak: after drain: %w", err)
	}
	logf("soak: done: %d scrapes, %d txns, %d restarts, %d uplink rejects, %d cycles",
		scrapes, txns.Load(), final.Counters["client_restarts"],
		rejects.Load(), final.Counters["server_cycles"])
	return nil
}

// scrapeBoth fetches and merges the server and client snapshots; the
// invariants relate counters across the two (e.g. restarts vs the
// measured update rate), so the checkers see one document.
func scrapeBoth(serverURL, clientURL string) (obs.Snapshot, error) {
	ss, err := obs.FetchSnapshot(serverURL + "/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	cs, err := obs.FetchSnapshot(clientURL + "/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	return ss.Merge(cs), nil
}

// checkInvariants runs every bctest checker against one merged scrape.
func checkInvariants(s obs.Snapshot, cfg soakConfig, m bctest.RestartModel, maxLive, txns int64) error {
	if cycles := s.Counters["server_cycles"]; cycles > 0 {
		m.UpdatesPerCycle = float64(s.Counters["server_commits"]) / float64(cycles)
	}
	if err := bctest.CheckSubscriberBalance(s, maxLive); err != nil {
		return err
	}
	if err := bctest.CheckCommitLatency(s, "netcast_uplink_ns", cfg.P99Bound.Nanoseconds(), 5); err != nil {
		return err
	}
	if err := bctest.CheckRestartRatio(s.Counters["client_restarts"], txns, m, 50); err != nil {
		return err
	}
	return bctest.CheckDgramLoss(s, cfg.LossBudget, 1, 200)
}

// checkTrace asserts the /trace endpoint serves a non-empty cycle
// trace — the soak's only consumer of the tracer wire format.
func checkTrace(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("soak: trace scrape: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("soak: trace scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("soak: trace scrape: %s returned %s", url, resp.Status)
	}
	if len(body) == 0 {
		return fmt.Errorf("soak: trace scrape: %s served an empty trace after a full scrape interval", url)
	}
	return nil
}

// runWorkload mirrors bcserver's synthetic update generator: length
// operations per transaction, half reads half writes in expectation,
// at Workload transactions per second.
func runWorkload(srv *broadcastcc.Server, cfg soakConfig, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ticker := time.NewTicker(time.Duration(float64(time.Second) / cfg.Workload))
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		txn := srv.Begin()
		for op := 0; op < cfg.WorkloadLen; op++ {
			obj := rng.Intn(cfg.Objects)
			if rng.Float64() < 0.5 {
				if _, err := txn.Read(obj); err != nil {
					break
				}
			} else {
				if err := txn.Write(obj, []byte(fmt.Sprintf("v%d", i))); err != nil {
					break
				}
			}
		}
		// Conflicts are the point of the exercise; swallow them.
		_ = txn.Commit()
	}
}
