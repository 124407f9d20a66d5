package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
)

// Span names. A cycle is a root span; everything else hangs below it:
//
//	cycle
//	├── uplink.submit × k
//	├── netcast.step
//	├── tuner.deliver
//	│   └── client.await_cycle × tuners
//	├── client.read_txn × txns
//	│   └── client.read × reads
//	└── qcache.compact
const (
	spCycle = iota
	spSubmit
	spStep
	spDeliver
	spAwait
	spReadTxn
	spRead
	spCompact
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"cycle", "uplink.submit", "netcast.step", "tuner.deliver",
	"client.await_cycle", "client.read_txn", "client.read", "qcache.compact",
}

// span is one timed interval of the harness around a call into the
// program. It holds no pointers, so the backing array can sit outside
// the Go heap (see seriesStore).
type span struct {
	start, end int64
	parent     int32 // index of the span that caused this one, -1 for a root
	cycle      int32 // identifier shared by every span of one cycle
	name       uint8
}

const spanCap = 1 << 21

var spanStore [spanCap]span

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
}

func newTracer() *tracer { return &tracer{spans: spanStore[:0]} }

// full reports that the next cycle's spans may not fit; the traced pass
// stops there rather than record half a cycle.
func (t *tracer) full(perCycle int) bool { return len(t.spans)+perCycle > spanCap }

// open starts a span whose end is set later with close.
func (t *tracer) open(name uint8, parent int32, cycle int32, start int64) int32 {
	t.spans = append(t.spans, span{start: start, parent: parent, cycle: cycle, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32, end int64) { t.spans[id].end = end }

// add records a finished span.
func (t *tracer) add(name uint8, parent int32, cycle int32, start, end int64) int32 {
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, cycle: cycle, name: name})
	return int32(len(t.spans) - 1)
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalUs  float64 `json:"total_us"`
	SelfUs   float64 `json:"self_us"`
	MedianUs float64 `json:"median_us"`
}

// summarize computes per-name totals, self times (a span's duration
// minus the part its children cover) and medians.
func (t *tracer) summarize() (stats [numSpanNames]spanStat, selfNs []int64) {
	selfNs = make([]int64, len(t.spans))
	for i, s := range t.spans {
		selfNs[i] += s.end - s.start
		if s.parent >= 0 {
			selfNs[s.parent] -= s.end - s.start
		}
	}
	durs := make([][]float64, numSpanNames)
	for i, s := range t.spans {
		d := float64(s.end - s.start)
		st := &stats[s.name]
		st.Count++
		st.TotalUs += d / 1e3
		st.SelfUs += float64(selfNs[i]) / 1e3
		durs[s.name] = append(durs[s.name], d)
	}
	for n := range stats {
		stats[n].Name = spanNames[n]
		stats[n].MedianUs = medianOf(durs[n]) / 1e3
	}
	return stats, selfNs
}

// maxSpansInFile bounds trace-<workload>.json: the summary covers every
// recorded span, the span list only the first cycles.
const maxSpansInFile = 50000

// writeFile writes the summary and the leading spans as JSON. Times are
// nanoseconds since the first recorded span.
func (t *tracer) writeFile(path, workload string, stats [numSpanNames]spanStat, selfNs []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans_recorded\":%d,\"summary\":[", workload, len(t.spans))
	for n, st := range stats {
		if n > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"count\":%d,\"total_us\":%.3f,\"self_us\":%.3f,\"median_us\":%.3f}",
			st.Name, st.Count, st.TotalUs, st.SelfUs, st.MedianUs)
	}
	w.WriteString("],\n\"spans\":[")
	var base int64
	if len(t.spans) > 0 {
		base = t.spans[0].start
	}
	var num []byte
	for i, s := range t.spans {
		if i >= maxSpansInFile {
			break
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString("\n{\"id\":")
		w.Write(strconv.AppendInt(num[:0], int64(i), 10))
		w.WriteString(",\"name\":\"")
		w.WriteString(spanNames[s.name])
		w.WriteString("\",\"cycle\":")
		w.Write(strconv.AppendInt(num[:0], int64(s.cycle), 10))
		w.WriteString(",\"parent\":")
		w.Write(strconv.AppendInt(num[:0], int64(s.parent), 10))
		w.WriteString(",\"start_ns\":")
		w.Write(strconv.AppendInt(num[:0], s.start-base, 10))
		w.WriteString(",\"end_ns\":")
		w.Write(strconv.AppendInt(num[:0], s.end-base, 10))
		w.WriteString(",\"self_ns\":")
		w.Write(strconv.AppendInt(num[:0], selfNs[i], 10))
		w.WriteByte('}')
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
