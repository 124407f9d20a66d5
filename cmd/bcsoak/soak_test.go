package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// soakTestConfig is a short, dense run: enough concurrency to exercise
// every leg (TCP tuners, UDP readers, writers, churn) in ~2 seconds.
func soakTestConfig() soakConfig {
	cfg := defaultSoakConfig()
	cfg.Duration = 2 * time.Second
	cfg.Interval = 10 * time.Millisecond
	cfg.Tuners = 12
	cfg.UDPClients = 4
	cfg.Writers = 2
	cfg.ChurnEvery = 100 * time.Millisecond
	cfg.ScrapeEvery = 400 * time.Millisecond
	cfg.Workload = 100
	// The test often shares the machine with the rest of the suite;
	// scheduling stalls there are not commit-path pathology.
	cfg.P99Bound = 5 * time.Second
	return cfg
}

func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke needs a couple of wall-clock seconds")
	}
	cfg := soakTestConfig()
	cfg.Timeline = filepath.Join(t.TempDir(), "timeline.jsonl")
	if err := runSoak(cfg, t.Logf); err != nil {
		t.Fatalf("soak run violated an invariant: %v", err)
	}

	// The timeline artifact must hold one valid JSON point per scrape,
	// each embedding the merged snapshot the checkers saw.
	f, err := os.Open(cfg.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	points := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var pt timelinePoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("timeline line %d is not valid JSON: %v", points+1, err)
		}
		if pt.Snapshot.Counters["server_cycles"] <= 0 {
			t.Fatalf("timeline point %d has no server cycles: %+v", points+1, pt.Snapshot.Counters)
		}
		points++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if points < 2 {
		t.Fatalf("timeline holds %d points, want at least 2 for a %v run scraped every %v",
			points, cfg.Duration, cfg.ScrapeEvery)
	}
}

// TestSoakCachedProfile runs the cached nightly profile short: every
// TCP tuner carries a weak-currency cache, and the run must both hold
// the invariants and actually hit the cache.
func TestSoakCachedProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke needs a couple of wall-clock seconds")
	}
	cfg := soakTestConfig()
	cfg.Duration = 1500 * time.Millisecond
	cfg.UDPClients = 0
	cfg.CacheCurrency = 4
	cfg.CacheSize = 64
	cfg.Timeline = filepath.Join(t.TempDir(), "timeline.jsonl")
	if err := runSoak(cfg, t.Logf); err != nil {
		t.Fatalf("cached soak violated an invariant: %v", err)
	}
	f, err := os.Open(cfg.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hits int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var pt timelinePoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatal(err)
		}
		hits = pt.Snapshot.Counters["client_cache_hits"]
	}
	if hits == 0 {
		t.Fatal("cached profile never served a read from the cache")
	}
}

func TestSoakConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*soakConfig)
		want string
	}{
		{"zero duration", func(c *soakConfig) { c.Duration = 0 }, "Duration"},
		{"no tuners", func(c *soakConfig) { c.Tuners = 0 }, "Tuners"},
		{"negative writers", func(c *soakConfig) { c.Writers = -1 }, "Writers"},
		{"reads exceed objects", func(c *soakConfig) { c.ReadsPerTxn = c.Objects + 1 }, "ReadsPerTxn"},
		{"loss budget above 1", func(c *soakConfig) { c.LossBudget = 1.5 }, "LossBudget"},
		{"zero scrape", func(c *soakConfig) { c.ScrapeEvery = 0 }, "ScrapeEvery"},
		{"negative cache currency", func(c *soakConfig) { c.CacheCurrency = -1 }, "CacheCurrency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultSoakConfig()
			tc.mut(&cfg)
			err := runSoak(cfg, nil)
			if err == nil {
				t.Fatal("invalid config was accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := defaultSoakConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestSocketDrops: the loss diagnostic reads the drops column of the
// sockets it was asked about out of a /proc/net/udp-format table, IPv4
// and IPv6 alike, and nothing else.
func TestSocketDrops(t *testing.T) {
	const table = `  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  12: 0100007F:A1B2 00000000:0000 07 00000000:00034000 00:00000000 00000000     0        0 4242 2 0000000000000000 17
  13: 0100007F:0035 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 4243 2 0000000000000000 5
   3: 00000000000000000000000001000000:C001 00000000000000000000000000000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 99 2 0000000000000000 0
`
	got := socketDrops(strings.NewReader(table), map[int]bool{0xA1B2: true, 0xC001: true})
	want := []string{"port 41394 drops 17", "port 49153 drops 0"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("socketDrops = %q, want %q", got, want)
	}
	if _, err := os.Stat("/proc/net/udp"); err != nil {
		return // not Linux: nothing to read the table from
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	port := conn.LocalAddr().(*net.UDPAddr).Port
	if s := udpDrops(conn.LocalAddr()); !strings.Contains(s, fmt.Sprintf("port %d drops 0", port)) {
		t.Fatalf("udpDrops of a fresh socket on port %d = %q", port, s)
	}
}
