// Package broadcastcc is a from-scratch reproduction of
//
//	"Efficient Concurrency Control for Broadcast Environments"
//	Shanmugasundaram, Nithrakashyap, Sivasankaran, Ramamritham
//	SIGMOD 1999
//
// It provides concurrency control for broadcast-disk environments —
// servers that periodically broadcast a whole (small) database to very
// many clients over an asymmetric medium — such that client read-only
// transactions read current, mutually consistent data entirely "off the
// air", without ever contacting the server.
//
// The package exposes five layers:
//
//   - History checking: parse execution histories in the paper's
//     notation and test them against conflict serializability, view
//     serializability, update consistency (the paper's correctness
//     criterion; exact but exponential) and APPROX (the paper's
//     polynomial recognizer).
//
//   - A live broadcast runtime: NewServer builds a broadcast server
//     that commits update transactions (local or shipped up a
//     low-bandwidth uplink) under conflict serializability and
//     publishes per-cycle snapshots with the control information of the
//     chosen protocol; NewClient builds clients that run validated
//     read-only and update transactions against those broadcasts,
//     optionally with a weak-currency cache.
//
//   - A networked deployment of the same runtime (ServeBroadcast, Tune,
//     DialUplink): the broadcast as a real one-way TCP stream carrying
//     the paper's bit-packed frames, with optional incremental (delta)
//     transmission of the control matrix, plus a TCP uplink.
//
//   - A discrete-event simulator (RunSim) parameterized exactly by the
//     paper's Table 1 — optionally with many concurrent clients, client
//     caches, multi-speed broadcast disks and client update
//     transactions — measuring transaction response times and restart
//     ratios in bit-units.
//
//   - The experiment harness (cmd/bcbench) that regenerates every
//     figure of the paper's evaluation plus the ablations and analyses
//     documented in EXPERIMENTS.md.
//
// The four algorithms compared throughout are Datacycle (serializable,
// the baseline from Herman et al.), R-Matrix, F-Matrix, and the ideal
// F-Matrix-No whose control information travels for free.
package broadcastcc

import (
	"net"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/core"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/faultair"
	"broadcastcc/internal/history"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
	"broadcastcc/internal/shard"
	"broadcastcc/internal/sim"
	"broadcastcc/internal/wire"
)

// Algorithm selects one of the paper's concurrency control protocols.
type Algorithm = protocol.Algorithm

// The algorithms of the paper's evaluation (Section 4) plus the grouped
// spectrum point of Section 3.2.2.
const (
	// Datacycle enforces serializability with a per-object last-write
	// vector (the paper's baseline).
	Datacycle = protocol.Datacycle
	// RMatrix weakens Datacycle with the first-read disjunct; accepts
	// only APPROX schedules.
	RMatrix = protocol.RMatrix
	// FMatrix broadcasts the full n×n control matrix and implements
	// APPROX exactly (Theorem 1).
	FMatrix = protocol.FMatrix
	// FMatrixNo is F-Matrix with free control information — the ideal,
	// non-realizable baseline.
	FMatrixNo = protocol.FMatrixNo
	// GroupedMatrix is the n×g intermediate between Datacycle and
	// F-Matrix.
	GroupedMatrix = protocol.Grouped
)

// ParseAlgorithm resolves textual algorithm names ("datacycle",
// "r-matrix", "f-matrix", "f-matrix-no", "grouped").
func ParseAlgorithm(s string) (Algorithm, error) { return protocol.ParseAlgorithm(s) }

// Cycle is a broadcast cycle number; cycle 1 is the first broadcast.
type Cycle = cmatrix.Cycle

// ---- History checking ----

// History is a transaction execution history.
type History = history.History

// Verdict is the outcome of a correctness check.
type Verdict = core.Verdict

// ParseHistory reads a history in the paper's notation, e.g.
// "r1(IBM) w2(IBM) c2 r3(IBM) r3(Sun) w4(Sun) c4 r1(Sun) c1 c3".
func ParseHistory(s string) (*History, error) { return history.Parse(s) }

// ConflictSerializable tests the committed projection of h for conflict
// serializability (polynomial).
func ConflictSerializable(h *History) Verdict { return core.ConflictSerializable(h) }

// ViewSerializable tests the committed projection of h for view
// serializability (exact; exponential in the worst case).
func ViewSerializable(h *History) Verdict { return core.ViewSerializable(h) }

// UpdateConsistent tests h against the paper's correctness criterion
// (Theorem 3): update transactions view serializable, every read-only
// transaction serializable against its LIVE set. Exact and therefore
// exponential (recognition is NP-complete); use Approx for the
// polynomial recognizer.
func UpdateConsistent(h *History) Verdict { return core.UpdateConsistent(h) }

// Approx runs the paper's polynomial-time APPROX algorithm (Section
// 3.1): update sub-history conflict serializable and every read-only
// transaction's serialization graph over its LIVE set acyclic.
func Approx(h *History) Verdict { return core.Approx(h) }

// ---- Live broadcast runtime ----

// ServerConfig parameterizes a broadcast server.
type ServerConfig = server.Config

// Server is a broadcast disk server.
type Server = server.Server

// NewServer builds a broadcast server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ClientConfig parameterizes a broadcast client.
type ClientConfig = client.Config

// Client is a broadcast listener running validated transactions.
type Client = client.Client

// Subscription is a client's tuner on the broadcast medium.
type Subscription = bcast.Subscription

// CycleBroadcast is one broadcast cycle's content.
type CycleBroadcast = bcast.CycleBroadcast

// Layout describes the physical structure of a broadcast cycle.
type Layout = bcast.Layout

// NewClient builds a client over a subscription obtained from
// Server.Subscribe.
func NewClient(cfg ClientConfig, sub *Subscription) *Client { return client.New(cfg, sub) }

// ReadTxn is a client read-only transaction.
type ReadTxn = client.ReadTxn

// UpdateTxn is a client update transaction.
type UpdateTxn = client.UpdateTxn

// ReadAt is one read-set entry: an object and the broadcast cycle it
// was read in.
type ReadAt = protocol.ReadAt

// ObjectWrite is one write of an update request.
type ObjectWrite = protocol.ObjectWrite

// UpdateRequest is the read/write-set payload an update transaction
// ships over the uplink.
type UpdateRequest = protocol.UpdateRequest

// Uplink is the client-to-server commit channel; *Server and *NetUplink
// both implement it. A handler gets requests valid only for the
// duration of the call and copies whatever it keeps.
type Uplink = protocol.Uplink

// ColumnSnapshot is the control information of a single object under
// F-Matrix: column Obj of the C matrix at some cycle — exactly what a
// program-mode Bucket carries.
type ColumnSnapshot = protocol.ColumnSnapshot

// SnapshotValidator validates reads that each carry their own control
// snapshot, in any cycle order — the validator for cached reads and
// for selective tuners, which receive one ColumnSnapshot per bucket.
type SnapshotValidator = protocol.SnapshotValidator

// Errors surfaced by the runtime that callers commonly branch on.
var (
	// ErrInconsistentRead aborts a client transaction whose next read
	// would violate the protocol's read-condition; restart it.
	ErrInconsistentRead = client.ErrInconsistentRead
	// ErrConflict rejects an update transaction whose reads were
	// overwritten by a committed transaction.
	ErrConflict = server.ErrConflict
)

// ---- Persistent cache tier (disk-backed weak-currency cache) ----

// CacheStore is the crash-safe on-disk cache tier: one value, control
// column and cache cycle per object, in an append-only segment log with
// atomic rotation and torn-tail recovery. Pass one as
// ClientConfig.Store so a client's weak-currency cache survives
// restarts and revalidates its inventory off the air before serving.
type CacheStore = qcache.Store

// CacheEntry is one recovered inventory entry of a CacheStore.
type CacheEntry = qcache.Entry

// OpenCacheStore opens (or creates) the persistent cache tier rooted
// at dir, recovering whatever inventory survived the last run —
// including a torn final record from a mid-write crash, which is
// discarded.
func OpenCacheStore(dir string) (*CacheStore, error) { return qcache.Open(dir) }

// ---- Air scheduling (broadcast programs, (1,m) index, tuning) ----

// BroadcastProgram is a multi-disk broadcast program: hot objects
// repeat every minor cycle, cold ones rotate through slow disks, and an
// optional (1,m) air index lets clients doze between frames. Pass one
// in ServerConfig.Program.
type BroadcastProgram = airsched.Program

// BuildProgram derives the broadcast program for a server
// configuration from per-object access-frequency weights: objects are
// partitioned across up to disks power-of-two-speed broadcast disks by
// the square-root rule, with indexM (1,m) index segments per major
// cycle (0 = no index). disks = 1 with no index reproduces the flat
// broadcast. The returned program has the layout NewServer gives cfg.
func BuildProgram(cfg ServerConfig, weights []float64, disks, indexM int) (*BroadcastProgram, error) {
	return airsched.Build(server.LayoutOf(cfg), weights, disks, indexM)
}

// ZipfWeights returns the static zipf(θ) access-frequency estimate
// over n objects (object 0 hottest); θ = 0 is uniform.
func ZipfWeights(n int, theta float64) []float64 { return airsched.ZipfWeights(n, theta) }

// ---- Network runtime (TCP) ----

// NetServer exposes a broadcast server over TCP: a one-way broadcast
// stream plus an uplink port for update transactions.
type NetServer = netcast.Server

// ServeBroadcast starts streaming srv's cycles on broadcastAddr and
// accepting update requests on uplinkAddr. Drive cycles with Step or
// RunTicker.
func ServeBroadcast(srv *Server, broadcastAddr, uplinkAddr string) (*NetServer, error) {
	return netcast.Serve(srv, broadcastAddr, uplinkAddr)
}

// Tuner receives a TCP broadcast stream and re-publishes decoded cycles
// locally for NewClient.
type Tuner = netcast.Tuner

// Tune connects to a broadcast stream.
func Tune(addr string) (*Tuner, error) { return netcast.Tune(addr) }

// SelectiveTuner is the (1,m) air-index receiver: it probes the
// stream, dozes to the next index segment, and wakes exactly for the
// frames it needs, tracking tuning time (frames listened) separately
// from access time. It requires a program-mode broadcast.
type SelectiveTuner = netcast.SelectiveTuner

// SelectiveStats are a selective tuner's frame counters.
type SelectiveStats = netcast.SelectiveStats

// TuneSelective connects a selective tuner to a program-mode broadcast
// stream.
func TuneSelective(addr string) (*SelectiveTuner, error) { return netcast.TuneSelective(addr) }

// Bucket is one decoded program-mode data frame: an object's value and
// reconstructed control column at a major cycle.
type Bucket = wire.Bucket

// NetUplink is the TCP client-to-server channel for update commits.
type NetUplink = netcast.Uplink

// DialUplink connects to a server's uplink port.
func DialUplink(addr string) (*NetUplink, error) { return netcast.DialUplink(addr) }

// ---- Cluster sharding (hashring-partitioned channels) ----

// ShardRing is a deterministic hashring over k shards: placements are
// pure functions of (seed, shards, vnodes).
type ShardRing = shard.Ring

// NewShardRing builds the ring for k shards (vnodes <= 0 selects the
// default).
func NewShardRing(seed int64, shards, vnodes int) *ShardRing {
	return shard.NewRing(seed, shards, vnodes)
}

// ShardMapping freezes the placement of an n-object database on a ring
// and carries the global-to-local id translation.
type ShardMapping = shard.Mapping

// NewShardMapping places n objects on the ring by hashing each object
// id.
func NewShardMapping(r *ShardRing, n int) *ShardMapping { return shard.NewMapping(r, n) }

// Fleet is k per-shard broadcast servers behind one mapping plus the
// coordinator that commits cross-shard update transactions.
// StartCycle is its one cycle edge: every shard advances under all of
// the shard locks.
type Fleet = shard.Fleet

// FleetConfig describes an in-process sharded deployment.
type FleetConfig = shard.FleetConfig

// NewFleet builds the mapping, the per-shard servers, and the
// coordinator.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return shard.NewFleet(cfg) }

// ShardAddr reports where shard s of a fleet listens, given shard 0's
// address for the same role (broadcast channel or uplink):
// the one listen plan bcserver and bcclient share.
func ShardAddr(base string, s int) (string, error) { return shard.Addr(base, s) }

// ShardCoordinator splits global update transactions across the fleet:
// single-shard transactions use the shard's ordinary submit (keeping
// k = 1 byte-identical to an unsharded server), cross-shard ones commit
// in one critical section over every shard they touch, on all of them
// or on none. It implements Uplink over global object ids.
type ShardCoordinator = shard.Coordinator

// ShardRouter gives client code the unsharded programming model over a
// sharded fleet: transactions name global object ids, the router
// splits them across per-shard clients and commits updates through the
// coordinator's uplink.
type ShardRouter = shard.Router

// NewShardRouter wires per-shard clients (index = shard id) to the
// fleet's commit uplink — a ShardCoordinator in process, or a
// DialUplink connection to bcserver's coordinator endpoint.
func NewShardRouter(m *ShardMapping, clients []*Client, uplink Uplink) (*ShardRouter, error) {
	return shard.NewRouter(m, clients, uplink)
}

// ShardReadTxn is a router read-only transaction over global ids.
type ShardReadTxn = shard.ReadTxn

// ShardUpdateTxn is a router update transaction over global ids.
type ShardUpdateTxn = shard.UpdateTxn

// ---- Connectionless datapath (UDP datagrams + FEC) ----

// DatagramConfig parameterizes the connectionless carrier: channel id,
// MTU sharding, and the systematic FEC group geometry (FECData data
// packets protected by FECRepair parity packets; FECRepair -1 disables
// repair, 0 takes the default).
type DatagramConfig = dgram.Config

// DatagramCarrier is anything the datagram sender can transmit on: a
// real UDP socket (DialUDPCarrier) or an in-process simulated medium.
type DatagramCarrier = dgram.Carrier

// DatagramSource is the receive side of a carrier: a bound UDP socket
// (ListenUDPSource) or a simulated-medium tap.
type DatagramSource = dgram.PacketSource

// DatagramSender shards frames into MTU-sized packets with FEC repair
// and transmits each exactly once, regardless of audience size.
type DatagramSender = dgram.Sender

// NewDatagramSender builds a sender on car. A nil registry disables
// transmission counters.
func NewDatagramSender(car DatagramCarrier, cfg DatagramConfig, reg *ObsRegistry) (*DatagramSender, error) {
	return dgram.NewSender(car, cfg, reg)
}

// DialUDPCarrier opens a UDP carrier transmitting to dest — a unicast,
// broadcast, or multicast "host:port" address.
func DialUDPCarrier(dest string) (*dgram.UDPCarrier, error) { return dgram.DialUDP(dest) }

// ListenUDPSource binds a UDP receive socket on addr, joining the
// group when addr is a multicast address.
func ListenUDPSource(addr string) (*dgram.UDPSource, error) { return dgram.ListenUDP(addr) }

// DatagramTuner receives a datagram broadcast, reassembles frames
// through the stateless ingress filter and FEC, and re-publishes
// decoded cycles locally for NewClient — the connectionless equivalent
// of Tuner.
type DatagramTuner = netcast.DatagramTuner

// TuneDatagram attaches a datagram tuner to a packet source. cfg must
// match the sender's channel and FEC geometry; a nil registry disables
// reception counters.
func TuneDatagram(src DatagramSource, cfg DatagramConfig, reg *ObsRegistry) (*DatagramTuner, error) {
	return netcast.TuneDatagram(src, cfg, reg)
}

// ---- Fault injection (the lossy air) ----

// FaultProfile parameterizes reception faults: per-client frame loss,
// random doze windows and scripted doze windows. The zero value injects
// nothing.
type FaultProfile = faultair.Profile

// FaultWindow is one scripted doze window of a FaultProfile.
type FaultWindow = faultair.Window

// FaultSchedule answers fault questions deterministically: every
// decision is a pure function of (profile, client, cycle).
type FaultSchedule = faultair.Schedule

// NewFaultSchedule builds the deterministic fault schedule for a
// profile. It panics on an invalid profile; Validate first when the
// profile comes from user input.
func NewFaultSchedule(p FaultProfile) *FaultSchedule { return faultair.NewSchedule(p) }

// LossyListener is one client's faulty tuner over a perfect source.
type LossyListener = faultair.Listener

// ListenLossy interposes the fault schedule between a broadcast source
// (a *Server or a *Tuner) and one client: subscribe the client to the
// returned listener instead of the source. reg (may be nil) receives the
// faultair_frames_{delivered,dozed,dropped} counters.
func ListenLossy(src faultair.Source, sched *FaultSchedule, clientID, buffer int, reg *ObsRegistry) *LossyListener {
	return faultair.Listen(src, sched, clientID, buffer, reg)
}

// ---- Simulation and experiments ----

// SimConfig holds the Table 1 simulation parameters.
type SimConfig = sim.Config

// SimResult summarizes one simulation run.
type SimResult = sim.Result

// DefaultSimConfig returns the paper's Table 1 defaults.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// RunSim executes one simulation run.
func RunSim(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// ---- Observability ----

// ObsRegistry is a metrics registry: named counters, gauges and
// fixed-bucket histograms with zero-allocation hot paths. Pass one as
// ServerConfig.Obs / ClientConfig.Obs to collect metrics, and serve it
// with ServeObs.
type ObsRegistry = obs.Registry

// ObsSnapshot is a point-in-time, mergeable registry snapshot (the
// /metrics JSON document, and the per-run obs block in bench JSON).
type ObsSnapshot = obs.Snapshot

// ObsTracer is a fixed-capacity ring of cycle-clock events: trace
// entries are stamped with (cycle, frame) positions, never wall time,
// so deterministic runs produce byte-identical traces.
type ObsTracer = obs.Tracer

// ObsEvent is one cycle-clock trace entry.
type ObsEvent = obs.Event

// NewObsRegistry builds an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsTracer builds a cycle-clock tracer keeping the last capacity
// events.
func NewObsTracer(capacity int) *ObsTracer { return obs.NewTracer(capacity) }

// ServeObs serves /metrics (registry snapshot as JSON), /trace (the
// tracer's events, one line each) and net/http/pprof on addr. The
// returned listener reports the bound address (useful with ":0") and
// stops the server when closed.
func ServeObs(addr string, reg *ObsRegistry, tr *ObsTracer) (net.Listener, error) {
	return obs.Serve(addr, reg, tr)
}
