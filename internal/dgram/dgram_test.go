package dgram

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"broadcastcc/internal/obs"
)

// testFates is a splitmix64-hashed PacketFates for these tests (the
// real fault model is faultair.PacketSchedule, which lives above this
// package and is wired to the sim carrier by its own callers).
type testFates struct {
	loss, dup  float64
	reorderMax int
	seed       int64
}

func (f testFates) zero() bool { return f.loss == 0 && f.dup == 0 && f.reorderMax == 0 }

func (f testFates) u64(client int, idx, salt uint64) uint64 {
	x := uint64(f.seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [...]uint64{uint64(client) + 1, idx, salt} {
		x += v
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

func (f testFates) unit(client int, idx, salt uint64) float64 {
	return float64(f.u64(client, idx, salt)>>11) / (1 << 53)
}

func (f testFates) Dropped(client int, idx uint64) bool {
	return f.loss > 0 && f.unit(client, idx, 1) < f.loss
}

func (f testFates) Duplicated(client int, idx uint64) bool {
	return f.dup > 0 && !f.Dropped(client, idx) && f.unit(client, idx, 2) < f.dup
}

func (f testFates) Lag(client int, idx uint64) int {
	if f.reorderMax == 0 {
		return 0
	}
	return int(f.u64(client, idx, 3) % uint64(f.reorderMax+1))
}

func TestPacketRoundTrip(t *testing.T) {
	region := encodeShardRegion(42, 3, 9000, 2800, bytes.Repeat([]byte{0xAB}, 100))
	pkt := encodePacket(false, 7, 12345, 99, 2, 4, 2, region)
	if !Filter(pkt, 7) {
		t.Fatal("valid packet rejected by filter")
	}
	h, err := decodeHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Repair || h.Channel != 7 || h.PktSeq != 12345 || h.Group != 99 ||
		h.GIdx != 2 || h.GData != 4 || h.GRepair != 2 {
		t.Fatalf("header mismatch: %+v", h)
	}
	sh, payload, err := decodeShardRegion(h.Region)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Cycle != 42 || sh.FrameSeq != 3 || sh.FrameLen != 9000 || sh.ShardOff != 2800 || sh.ShardLen != 100 {
		t.Fatalf("shard header mismatch: %+v", sh)
	}
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xAB}, 100)) {
		t.Fatal("payload mismatch")
	}

	rep := encodePacket(true, 7, 12346, 99, 1, 4, 2, make([]byte, 64))
	h, err = decodeHeader(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Repair || h.GIdx != 1 {
		t.Fatalf("repair header mismatch: %+v", h)
	}
}

func TestFilterRejections(t *testing.T) {
	region := encodeShardRegion(1, 0, 10, 0, []byte("0123456789"))
	good := encodePacket(false, 5, 1, 0, 0, 1, 0, region)
	if !Filter(good, 5) {
		t.Fatal("good packet rejected")
	}
	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:headerLen-1],
		"truncated": good[:len(good)-1],
		"extended":  append(append([]byte(nil), good...), 0),
	}
	for name, pkt := range cases {
		if Filter(pkt, 5) {
			t.Errorf("%s packet accepted", name)
		}
	}
	// Any single flipped bit must fail the hash (or an earlier check).
	for i := 0; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x40
		if Filter(mut, 5) {
			t.Errorf("bit flip at byte %d accepted", i)
		}
	}
	if Filter(good, 6) {
		t.Error("wrong channel accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if err := (Config{FECRepair: -1}).Validate(); err != nil {
		t.Fatalf("FEC-disabled config invalid: %v", err)
	}
	bad := []Config{
		{MTU: headerLen + shardHeaderLen}, // no payload room
		{MTU: maxMTU + 1},
		{FECData: maxFECShards + 1},
		{FECRepair: maxFECRepair + 1},
		{FECData: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

// frameBatch builds deterministic frames of assorted sizes: sub-MTU,
// exactly one chunk, multi-chunk, and large.
func frameBatch(r *rand.Rand, chunk int) [][]byte {
	sizes := []int{1, 17, chunk - 1, chunk, chunk + 1, 3*chunk + 5, 10 * chunk}
	frames := make([][]byte, len(sizes))
	for i, n := range sizes {
		f := make([]byte, n)
		r.Read(f)
		frames[i] = f
	}
	return frames
}

func TestSenderReassemblerPerfect(t *testing.T) {
	cfg := Config{Channel: 9}
	car := NewSimCarrier()
	tap := car.Tap(0, nil, 0)
	reg := obs.NewRegistry()
	s, err := NewSender(car, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := NewReassembler(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	chunk := s.Config().MTU - headerLen - shardHeaderLen
	rng := rand.New(rand.NewSource(1))

	var sent [][]byte
	for cycle := int64(1); cycle <= 5; cycle++ {
		frames := frameBatch(rng, chunk)
		sent = append(sent, frames...)
		if err := s.SendCycle(cycle, frames); err != nil {
			t.Fatal(err)
		}
	}
	car.Close()

	var got []Frame
	for {
		pkt, err := tap.Recv()
		if err != nil {
			break
		}
		got = append(got, ra.Ingest(pkt)...)
	}
	got = append(got, ra.Flush()...)
	if len(got) != len(sent) {
		t.Fatalf("delivered %d frames, sent %d", len(got), len(sent))
	}
	last := Frame{Cycle: 0, Seq: -1}
	for i, f := range got {
		if !bytes.Equal(f.Data, sent[i]) {
			t.Fatalf("frame %d bytes differ", i)
		}
		if f.Cycle < last.Cycle || (f.Cycle == last.Cycle && f.Seq <= last.Seq) {
			t.Fatalf("frame %d out of order: %d/%d after %d/%d", i, f.Cycle, f.Seq, last.Cycle, last.Seq)
		}
		last = f
	}
	if n := reg.Counter(CtrFramesRx).Load(); n != int64(len(sent)) {
		t.Errorf("frames_rx = %d, want %d", n, len(sent))
	}
	if n := reg.Counter(CtrFramesRepaired).Load(); n != 0 {
		t.Errorf("frames_repaired = %d on a perfect medium", n)
	}
	if n := reg.Counter(CtrFilterDrops).Load(); n != 0 {
		t.Errorf("filter_drops = %d on a perfect medium", n)
	}
	if tx, rx := reg.Counter(CtrPacketsTx).Load()+reg.Counter(CtrRepairTx).Load(), reg.Counter(CtrPacketsRx).Load(); tx != rx {
		t.Errorf("tx %d packets but rx %d on a perfect medium", tx, rx)
	}
}

// runLossy pushes cycles through a sim medium with the given packet
// profile and returns (sent frames, delivered frames, registry).
func runLossy(t *testing.T, prof testFates, cycles int) ([][]byte, []Frame, *obs.Registry) {
	t.Helper()
	cfg := Config{Channel: 1}
	car := NewSimCarrier()
	var sched PacketFates
	if !prof.zero() {
		sched = prof
	}
	tap := car.Tap(0, sched, 1<<16)
	reg := obs.NewRegistry()
	s, err := NewSender(car, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := NewReassembler(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	chunk := s.Config().MTU - headerLen - shardHeaderLen
	rng := rand.New(rand.NewSource(7))
	var sent [][]byte
	for cycle := int64(1); cycle <= int64(cycles); cycle++ {
		frames := frameBatch(rng, chunk)
		sent = append(sent, frames...)
		if err := s.SendCycle(cycle, frames); err != nil {
			t.Fatal(err)
		}
	}
	car.Close()
	var got []Frame
	for {
		pkt, err := tap.Recv()
		if err != nil {
			break
		}
		got = append(got, ra.Ingest(pkt)...)
	}
	got = append(got, ra.Flush()...)
	return sent, got, reg
}

func TestSenderReassemblerLoss(t *testing.T) {
	sent, got, reg := runLossy(t, testFates{loss: 0.10, seed: 42}, 20)
	if len(got) == 0 {
		t.Fatal("nothing delivered at 10% loss")
	}
	// Delivered frames must be byte-identical to what was sent: index
	// sent frames by (cycle, seq) — frameBatch emits the same count per
	// cycle, so sent[i] belongs to cycle i/perCycle+1, seq i%perCycle.
	perCycle := len(sent) / 20
	for _, f := range got {
		want := sent[int(f.Cycle-1)*perCycle+f.Seq]
		if !bytes.Equal(f.Data, want) {
			t.Fatalf("frame %d/%d corrupted", f.Cycle, f.Seq)
		}
	}
	repaired := reg.Counter(CtrFramesRepaired).Load()
	if repaired == 0 {
		t.Error("no frames repaired at 10% loss — FEC path never exercised")
	}
	// FEC with K=4,R=2 at 10% iid loss recovers the overwhelming
	// majority of affected frames; delivered+lost must cover all sent.
	lost := reg.Counter(CtrFramesLost).Load()
	if int(reg.Counter(CtrFramesRx).Load())+int(lost) != len(sent) {
		t.Errorf("frames_rx %d + frames_lost %d != sent %d",
			reg.Counter(CtrFramesRx).Load(), lost, len(sent))
	}
	if float64(len(got)) < 0.9*float64(len(sent)) {
		t.Errorf("only %d/%d frames survived 10%% packet loss", len(got), len(sent))
	}
}

func TestSenderReassemblerDuplicates(t *testing.T) {
	sent, got, reg := runLossy(t, testFates{dup: 0.3, seed: 3}, 10)
	if len(got) != len(sent) {
		t.Fatalf("delivered %d frames, sent %d (duplication must not lose data)", len(got), len(sent))
	}
	for i, f := range got {
		if !bytes.Equal(f.Data, sent[i]) {
			t.Fatalf("frame %d corrupted by duplication", i)
		}
	}
	if reg.Counter(CtrDupDrops).Load() == 0 {
		t.Error("dup_drops = 0 under 30% duplication")
	}
}

func TestSenderReassemblerReorder(t *testing.T) {
	sent, got, _ := runLossy(t, testFates{reorderMax: 7, seed: 5}, 10)
	if len(got) != len(sent) {
		t.Fatalf("delivered %d frames, sent %d (bounded reorder must not lose data)", len(got), len(sent))
	}
	last := Frame{Seq: -1}
	for i, f := range got {
		if !bytes.Equal(f.Data, sent[i]) {
			t.Fatalf("frame %d corrupted by reorder", i)
		}
		if f.Cycle < last.Cycle || (f.Cycle == last.Cycle && f.Seq <= last.Seq) {
			t.Fatalf("frame %d emitted out of order", i)
		}
		last = f
	}
}

func TestSenderReassemblerAllFaults(t *testing.T) {
	sent, got, _ := runLossy(t, testFates{loss: 0.05, dup: 0.05, reorderMax: 4, seed: 11}, 15)
	perCycle := len(sent) / 15
	last := Frame{Seq: -1}
	for _, f := range got {
		if !bytes.Equal(f.Data, sent[int(f.Cycle-1)*perCycle+f.Seq]) {
			t.Fatalf("frame %d/%d corrupted", f.Cycle, f.Seq)
		}
		if f.Cycle < last.Cycle || (f.Cycle == last.Cycle && f.Seq <= last.Seq) {
			t.Fatalf("frame %d/%d emitted out of order", f.Cycle, f.Seq)
		}
		last = f
	}
	if float64(len(got)) < 0.9*float64(len(sent)) {
		t.Errorf("only %d/%d frames survived combined faults", len(got), len(sent))
	}
}

// TestLostShardReleasesLaterFrames: a frame that lost a packet beyond
// FEC's reach never completes, and the frame behind it leaves as soon
// as the lost packet can no longer arrive — reorderSlack packets past
// the end of its group — not once it is a whole reorderWindow stale.
func TestLostShardReleasesLaterFrames(t *testing.T) {
	cfg := Config{Channel: 1, FECRepair: -1}
	car := NewSimCarrier()
	tap := car.Tap(0, nil, 0)
	reg := obs.NewRegistry()
	s, err := NewSender(car, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := NewReassembler(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 1 is one group (packets 0-3): a three-shard frame, then a
	// one-shard frame. Every later cycle is one one-shard packet.
	chunk := s.Config().MTU - headerLen - shardHeaderLen
	if err := s.SendCycle(1, [][]byte{make([]byte, 3*chunk), {1}}); err != nil {
		t.Fatal(err)
	}
	for c := int64(2); c <= 40; c++ {
		if err := s.SendCycle(c, [][]byte{{byte(c)}}); err != nil {
			t.Fatal(err)
		}
	}
	car.Close()
	const lost, groupEnd = 1, 3 // the middle shard of frame 1/0
	var got []Frame
	released := -1
	for idx := 0; ; idx++ {
		pkt, err := tap.Recv()
		if err != nil {
			break
		}
		if idx == lost {
			continue
		}
		got = append(got, ra.Ingest(pkt)...)
		if released < 0 && len(got) > 0 {
			released = idx
		}
	}
	got = append(got, ra.Flush()...)
	if want := groupEnd + reorderSlack + 1; released != want {
		t.Fatalf("first frame released at packet %d, want %d", released, want)
	}
	if len(got) != 40 || got[0].Cycle != 1 || got[0].Seq != 1 {
		t.Fatalf("delivered %d frames starting at %d/%d, want 40 starting at 1/1", len(got), got[0].Cycle, got[0].Seq)
	}
	for i, f := range got[1:] {
		if f.Cycle != int64(i+2) || f.Seq != 0 {
			t.Fatalf("frame %d is %d/%d, want %d/0", i+1, f.Cycle, f.Seq, i+2)
		}
	}
	if n := reg.Counter(CtrFramesLost).Load(); n != 1 {
		t.Errorf("frames_lost = %d, want 1", n)
	}
}

// TestReorderWithinSlackWithoutFEC: with no repair packets to rebuild a
// late shard, reorder up to the tested lag (7 transmit slots) must still
// lose and misorder nothing — reorderSlack must cover it.
func TestReorderWithinSlackWithoutFEC(t *testing.T) {
	cfg := Config{Channel: 1, FECRepair: -1}
	for seed := int64(1); seed <= 8; seed++ {
		car := NewSimCarrier()
		tap := car.Tap(0, testFates{reorderMax: 7, seed: seed}, 1<<16)
		s, err := NewSender(car, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := NewReassembler(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		chunk := s.Config().MTU - headerLen - shardHeaderLen
		rng := rand.New(rand.NewSource(seed))
		var sent [][]byte
		for cycle := int64(1); cycle <= 10; cycle++ {
			frames := frameBatch(rng, chunk)
			sent = append(sent, frames...)
			if err := s.SendCycle(cycle, frames); err != nil {
				t.Fatal(err)
			}
		}
		car.Settle()
		car.Close()
		var got []Frame
		for {
			pkt, err := tap.Recv()
			if err != nil {
				break
			}
			got = append(got, ra.Ingest(pkt)...)
		}
		if len(got) != len(sent) {
			t.Fatalf("seed %d: delivered %d frames before the stream ended, sent %d", seed, len(got), len(sent))
		}
		for i, f := range got {
			if !bytes.Equal(f.Data, sent[i]) {
				t.Fatalf("seed %d: frame %d differs", seed, i)
			}
		}
	}
}

func TestSimReplayDeterminism(t *testing.T) {
	run := func() string {
		_, got, _ := runLossy(t, testFates{loss: 0.1, dup: 0.1, reorderMax: 5, seed: 99}, 10)
		var b bytes.Buffer
		for _, f := range got {
			fmt.Fprintf(&b, "%d/%d:%x;", f.Cycle, f.Seq, f.Data[:min(8, len(f.Data))])
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("same seed produced different delivered frame streams")
	}
}

func TestSimTapOverflowIsGenuineNonReceive(t *testing.T) {
	cfg := Config{Channel: 2}
	car := NewSimCarrier()
	tap := car.Tap(0, nil, 4) // tiny buffer, nobody reading: a dozing tuner
	s, err := NewSender(car, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat([]byte{1}, 8000)
	for c := int64(1); c <= 10; c++ {
		if err := s.SendCycle(c, [][]byte{frame}); err != nil {
			t.Fatal(err)
		}
	}
	car.Close()
	if tap.Overflow() == 0 {
		t.Fatal("no overflow drops while dozing — packets were buffered, not missed")
	}
	n := 0
	for {
		if _, err := tap.Recv(); err != nil {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("drained %d packets from a 4-packet buffer", n)
	}
}

// TestGoldenPacket is the datagram byte-identity oracle:
// testdata/packet.golden holds this packet as PR 13's encoder produced
// it, except for the magic in bytes 0-3, which PR 14 renamed.
func TestGoldenPacket(t *testing.T) {
	region := encodeShardRegion(42, 3, 9000, 2800, []byte("payload"))
	got := hex.EncodeToString(encodePacket(false, 7, 12345, 99, 2, 4, 2, region))
	raw, err := os.ReadFile("testdata/packet.golden")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Errorf("packet changed on the wire:\n got %s\nwant %s", got, want)
	}
}
