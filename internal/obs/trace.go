package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
)

// EventKind labels a cycle-clock trace event.
type EventKind uint8

// Trace event kinds. Values are part of the binary codec: append only.
const (
	EvCycleStart      EventKind = iota + 1 // server/sim begins broadcasting a cycle; Arg = committed txns in the cycle
	EvCycleEnd                             // a cycle's transmission finished; Arg = frames sent
	EvSnapshotPublish                      // control snapshot published; Arg = control payload fingerprint
	EvReadValidate                         // a read passed its read-condition; Arg = object id
	EvReadAbort                            // a read-condition failed, txn restarts; Arg = object id
	EvUplinkVerdict                        // uplink update decided; Arg = 1 accept / 0 reject
	EvRetune                               // client re-tuned after a gap/disconnect; Arg = cycles missed
	EvDoze                                 // client doze window; Arg = frames (or cycles) slept
	EvSubReap                              // server dropped a subscriber (write overflow, hang-up or a stray byte); Arg = subscribers left
)

var kindNames = [...]string{
	EvCycleStart:      "cycle-start",
	EvCycleEnd:        "cycle-end",
	EvSnapshotPublish: "snapshot-publish",
	EvReadValidate:    "read-validate",
	EvReadAbort:       "read-abort",
	EvUplinkVerdict:   "uplink-verdict",
	EvRetune:          "retune",
	EvDoze:            "doze",
	EvSubReap:         "sub-reap",
}

// String returns the stable text name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one cycle-clock trace record. Position on the air is
// (Cycle, Frame) — logical broadcast time, never wall time — so traces
// from deterministic runs are reproducible bit-for-bit. Actor is the
// emitting party (-1 server, client id otherwise); Arg is
// kind-specific (see the kind constants).
type Event struct {
	Kind  EventKind `json:"kind"`
	Actor int32     `json:"actor"`
	Cycle int64     `json:"cycle"`
	Frame int32     `json:"frame"`
	Arg   int64     `json:"arg"`
}

// ActorServer is the Actor value for server-side events.
const ActorServer int32 = -1

// Tracer is a fixed-capacity ring of events. Emit never allocates:
// overflow overwrites the oldest record (deterministically, so a full
// ring from a deterministic run is still reproducible) and bumps a
// dropped counter. A nil *Tracer is valid and discards everything, so
// instrumented code needs no nil checks at call sites.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    int // index of the slot the next event goes into
	n       int // events currently retained (≤ len(buf))
	dropped int64
}

// NewTracer returns a tracer retaining the most recent capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		panic("obs: tracer capacity must be positive")
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Emit appends an event to the ring. Nil-safe and allocation-free.
func (t *Tracer) Emit(kind EventKind, actor int32, cycle int64, frame int32, arg int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.next] = Event{Kind: kind, Actor: actor, Cycle: cycle, Frame: frame, Arg: arg}
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Dropped returns how many events were overwritten by ring overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// traceRecordSize is the fixed on-wire size of one encoded event:
// kind(1) + actor(4) + cycle(8) + frame(4) + arg(8).
const traceRecordSize = 1 + 4 + 8 + 4 + 8

// EncodeTrace serializes events as fixed-size big-endian records.
// Equal event slices encode to equal bytes — the property the
// golden-trace determinism tests assert on.
func EncodeTrace(events []Event) []byte {
	out := make([]byte, 0, len(events)*traceRecordSize)
	var rec [traceRecordSize]byte
	for _, e := range events {
		rec[0] = byte(e.Kind)
		binary.BigEndian.PutUint32(rec[1:5], uint32(e.Actor))
		binary.BigEndian.PutUint64(rec[5:13], uint64(e.Cycle))
		binary.BigEndian.PutUint32(rec[13:17], uint32(e.Frame))
		binary.BigEndian.PutUint64(rec[17:25], uint64(e.Arg))
		out = append(out, rec[:]...)
	}
	return out
}

// DecodeTrace parses EncodeTrace output. It rejects torn input (length
// not a multiple of the record size) and unknown event kinds, so the
// codec round-trips exactly: DecodeTrace(EncodeTrace(evs)) == evs.
func DecodeTrace(b []byte) ([]Event, error) {
	if len(b)%traceRecordSize != 0 {
		return nil, fmt.Errorf("obs: trace length %d is not a multiple of %d", len(b), traceRecordSize)
	}
	events := make([]Event, 0, len(b)/traceRecordSize)
	for off := 0; off < len(b); off += traceRecordSize {
		rec := b[off : off+traceRecordSize]
		k := EventKind(rec[0])
		if k < EvCycleStart || k > EvSubReap {
			return nil, fmt.Errorf("obs: unknown event kind %d at offset %d", rec[0], off)
		}
		events = append(events, Event{
			Kind:  k,
			Actor: int32(binary.BigEndian.Uint32(rec[1:5])),
			Cycle: int64(binary.BigEndian.Uint64(rec[5:13])),
			Frame: int32(binary.BigEndian.Uint32(rec[13:17])),
			Arg:   int64(binary.BigEndian.Uint64(rec[17:25])),
		})
	}
	return events, nil
}

// FormatTrace renders events as one text line each, for /trace and
// test failure output.
func FormatTrace(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "c%d f%d actor=%d %s arg=%d\n", e.Cycle, e.Frame, e.Actor, e.Kind, e.Arg)
	}
	return b.String()
}

// WriteTrace streams FormatTrace output without building the whole
// string (used by the /trace HTTP endpoint).
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "c%d f%d actor=%d %s arg=%d\n", e.Cycle, e.Frame, e.Actor, e.Kind, e.Arg); err != nil {
			return err
		}
	}
	return bw.Flush()
}
