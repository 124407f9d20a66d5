// Package sim is the discrete-event simulator behind the paper's
// performance study (Section 4): a broadcast server committing update
// transactions at a configured rate, a broadcast disk carrying every
// object plus the protocol's control information each cycle, and a
// client running read-only transactions whose reads wait for their
// objects to come around on the disk and are validated against the
// control snapshot of the cycle they were read in. Time is measured in
// bit-units — the time to broadcast one bit — exactly as in the paper.
//
// The simulator reuses the production read-condition validators from
// internal/protocol and the control-matrix maintenance from
// internal/cmatrix, so the measured behaviour is that of the real
// protocol implementations.
package sim

import (
	"fmt"

	"broadcastcc/internal/protocol"
)

// MaxClients bounds Config.Clients. The event-wheel engine addresses
// clients with int32 cursors and packs per-client state into flat
// arrays sized Clients x ClientTxnLength; 4M clients keeps every index
// comfortably inside int32 and the state arrays inside a few GiB.
const MaxClients = 4 << 20

// Config holds the simulation parameters of Table 1. The zero value is
// not runnable; start from DefaultConfig.
type Config struct {
	// Algorithm selects the concurrency control protocol under test.
	Algorithm protocol.Algorithm
	// Groups is the partition size for protocol.Grouped (ignored
	// otherwise).
	Groups int

	// ClientTxnLength is the number of read operations per client
	// transaction (default 4).
	ClientTxnLength int
	// ServerTxnLength is the number of read/write operations per server
	// transaction (default 8).
	ServerTxnLength int
	// ServerTxnInterval is the time between server transaction
	// completions in bit-units (default 250000 — the paper's "1 in
	// 250000 bit-units" rate).
	ServerTxnInterval float64
	// ServerIntervalExponential draws the interval from an exponential
	// distribution with the configured mean instead of a fixed spacing.
	ServerIntervalExponential bool
	// Objects is the database size n (default 300).
	Objects int
	// ObjectBits is the broadcast size of one object (default 8192 =
	// 1 KB).
	ObjectBits int64
	// ServerReadProb is the probability a server operation is a read
	// (default 0.5).
	ServerReadProb float64
	// MeanInterOpDelay is the mean of the exponential think time before
	// each client read (default 65536).
	MeanInterOpDelay float64
	// MeanInterTxnDelay is the mean of the exponential delay between
	// client transactions (default 131072).
	MeanInterTxnDelay float64
	// RestartDelay is the fixed delay before a client transaction
	// restarts after an abort (default 0).
	RestartDelay float64
	// TimestampBits is the control timestamp width TS (default 8).
	TimestampBits int

	// Clients is the number of concurrent clients (0 or 1 = the paper's
	// single client). Every count runs on the event wheel (wheel.go); the
	// single client is its client 0 drawing from the run's own stream, so
	// the x = 1 point of a client sweep comes from the same code as the
	// rest. Each client executes ClientTxns transactions and metrics are
	// pooled (plus reported per client). The client cache is
	// single-client only. Bounded above by MaxClients (clients are int32
	// cursors into flat state arrays).
	Clients int

	// CompactRNG replaces the per-client math/rand lagged-Fibonacci
	// source (~5 KB of state per client) with a two-word PCG stream and
	// an allocation-free object picker. Required in practice beyond
	// ~10^5 clients; it changes the per-client random streams (not the
	// model), so the byte-identity with the legacy test oracle does not
	// extend to it.
	CompactRNG bool

	// ClientTxns is the number of client transactions to run to
	// completion (default 1000), per client.
	ClientTxns int
	// MeasureFrom discards the first MeasureFrom transactions as warmup;
	// the paper measures the last 500 of 1000 (default 500).
	MeasureFrom int

	// ZipfTheta, when positive, skews client object selection with a
	// Zipf(θ) distribution over object ids (0 hottest) and supplies the
	// access-frequency estimate an airsched broadcast program is built
	// from. 0 keeps the paper's uniform access.
	ZipfTheta float64
	// Disks is the disk count of the airsched broadcast program every
	// read waits out, built from the Zipf weights (square-root rule):
	// hot objects repeat every minor cycle, cold ones rotate. 0 and 1
	// both run the paper's flat one-disk program; 1 also reports tuning
	// time (Result.TuningFrames), which makes it the identically-measured
	// baseline of the multi-disk runs.
	Disks int
	// IndexM, when positive, interleaves a (1,m) air index into the
	// broadcast program and the client tunes selectively: each read
	// listens to one probe frame, dozes to the next index segment,
	// listens to it, and dozes again to the object's frame — tuning time
	// (frames listened) is measured separately from access time.
	// Requires Disks >= 1.
	IndexM int

	// ClientUpdateProb makes a client transaction an update transaction
	// with this probability (the paper's future-work direction): it
	// performs its reads as usual, writes ClientTxnWrites of the objects
	// it read, and commits via the uplink, where the server validates
	// its reads against committed state.
	ClientUpdateProb float64
	// ClientTxnWrites is the number of written objects per client update
	// transaction (capped at ClientTxnLength; default 1 when
	// ClientUpdateProb > 0).
	ClientTxnWrites int
	// UplinkLatency is the commit round-trip cost in bit-units.
	UplinkLatency float64

	// CacheCurrency enables the Section 3.3 client cache when positive:
	// a cached item satisfies reads while it is at most CacheCurrency
	// cycles old. Cached reads cost no broadcast wait.
	CacheCurrency int64
	// CacheSize caps cached entries (0 = unlimited).
	CacheSize int

	// FaultLoss is the per-client per-cycle probability that the cycle's
	// broadcast is lost to the client (frame drop), driving the faultair
	// schedule: a read cannot complete in a missed cycle and waits for
	// the object's next transmission in a received one. Cached reads are
	// unaffected (they never touch the air).
	FaultLoss float64
	// FaultDoze is the per-cycle probability that a doze window starts,
	// during which the client misses FaultDozeLen whole cycles.
	FaultDoze float64
	// FaultDozeLen is the doze window length in cycles (default 1 when
	// FaultDoze > 0).
	FaultDozeLen int
	// FaultSeed selects the fault schedule; runs with the same FaultSeed
	// replay the identical per-client drop/doze trace regardless of
	// execution order or parallelism.
	FaultSeed int64

	// Audit records the server commit log and every committed client
	// read-set in the Result so tests can reconstruct and check the
	// induced history. Only suitable for small runs.
	Audit bool

	// Seed makes runs reproducible.
	Seed int64
	// MaxTime aborts the simulation (with an error) if the clock passes
	// this many bit-units, guarding against pathological configurations;
	// 0 means no limit.
	MaxTime float64
}

// DefaultConfig returns Table 1's parameter settings with the F-Matrix
// algorithm selected.
func DefaultConfig() Config {
	return Config{
		Algorithm:         protocol.FMatrix,
		ClientTxnLength:   4,
		ServerTxnLength:   8,
		ServerTxnInterval: 250000,
		Objects:           300,
		ObjectBits:        8192,
		ServerReadProb:    0.5,
		MeanInterOpDelay:  65536,
		MeanInterTxnDelay: 131072,
		RestartDelay:      0,
		TimestampBits:     8,
		ClientTxns:        1000,
		MeasureFrom:       500,
		Seed:              1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Objects <= 0:
		return fmt.Errorf("sim: Objects = %d, need > 0", c.Objects)
	case c.ObjectBits <= 0:
		return fmt.Errorf("sim: ObjectBits = %d, need > 0", c.ObjectBits)
	case c.ClientTxnLength <= 0:
		return fmt.Errorf("sim: ClientTxnLength = %d, need > 0", c.ClientTxnLength)
	case c.ClientTxnLength > c.Objects:
		return fmt.Errorf("sim: ClientTxnLength %d exceeds Objects %d (transactions read distinct objects)", c.ClientTxnLength, c.Objects)
	case c.ServerTxnLength < 0:
		return fmt.Errorf("sim: ServerTxnLength = %d, need >= 0", c.ServerTxnLength)
	case c.ServerTxnInterval <= 0:
		return fmt.Errorf("sim: ServerTxnInterval = %v, need > 0", c.ServerTxnInterval)
	case c.ServerReadProb < 0 || c.ServerReadProb > 1:
		return fmt.Errorf("sim: ServerReadProb = %v, need [0,1]", c.ServerReadProb)
	case c.MeanInterOpDelay < 0 || c.MeanInterTxnDelay < 0 || c.RestartDelay < 0:
		return fmt.Errorf("sim: delays must be non-negative")
	case c.ClientTxns <= 0:
		return fmt.Errorf("sim: ClientTxns = %d, need > 0", c.ClientTxns)
	case c.MeasureFrom < 0 || c.MeasureFrom >= c.ClientTxns:
		return fmt.Errorf("sim: MeasureFrom = %d, need [0,%d)", c.MeasureFrom, c.ClientTxns)
	case c.Algorithm == protocol.Grouped && (c.Groups < 1 || c.Groups > c.Objects):
		return fmt.Errorf("sim: Groups = %d, need [1,%d]", c.Groups, c.Objects)
	case c.CacheCurrency < 0:
		return fmt.Errorf("sim: CacheCurrency = %d, need >= 0", c.CacheCurrency)
	case c.ClientUpdateProb < 0 || c.ClientUpdateProb > 1:
		return fmt.Errorf("sim: ClientUpdateProb = %v, need [0,1]", c.ClientUpdateProb)
	case c.ClientTxnWrites < 0:
		return fmt.Errorf("sim: ClientTxnWrites = %d, need >= 0", c.ClientTxnWrites)
	case c.UplinkLatency < 0:
		return fmt.Errorf("sim: UplinkLatency = %v, need >= 0", c.UplinkLatency)
	case c.Clients < 0:
		return fmt.Errorf("sim: Clients = %d, need >= 0", c.Clients)
	case c.Clients > MaxClients:
		return fmt.Errorf("sim: Clients = %d exceeds MaxClients = %d (event-wheel client cursors are int32-indexed)", c.Clients, MaxClients)
	case c.Clients > 1 && c.CacheCurrency > 0:
		return fmt.Errorf("sim: the client cache is not supported in multi-client mode")
	case c.FaultLoss < 0 || c.FaultLoss >= 1:
		return fmt.Errorf("sim: FaultLoss = %v, need [0,1) (at 1 no read ever completes)", c.FaultLoss)
	case c.FaultDoze < 0 || c.FaultDoze >= 1:
		return fmt.Errorf("sim: FaultDoze = %v, need [0,1) (at 1 no read ever completes)", c.FaultDoze)
	case c.FaultDozeLen < 0:
		return fmt.Errorf("sim: FaultDozeLen = %d, need >= 0", c.FaultDozeLen)
	case c.ZipfTheta < 0:
		return fmt.Errorf("sim: ZipfTheta = %v, need >= 0", c.ZipfTheta)
	case c.Disks < 0 || c.Disks > c.Objects:
		return fmt.Errorf("sim: Disks = %d, need [0,%d]", c.Disks, c.Objects)
	case c.IndexM < 0:
		return fmt.Errorf("sim: IndexM = %d, need >= 0", c.IndexM)
	case c.IndexM > 0 && c.Disks < 1:
		return fmt.Errorf("sim: IndexM = %d needs an airsched program (Disks >= 1)", c.IndexM)
	case c.TimestampBits < 1 || c.TimestampBits > 32:
		return fmt.Errorf("sim: TimestampBits = %d, need [1,32]", c.TimestampBits)
	}
	return nil
}
