package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(EvCycleStart, ActorServer, int64(i), 0, 0)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != int64(i+2) {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first after overflow)", i, e.Cycle, i+2)
		}
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Emit(EvDoze, 0, 1, 2, 3) // must not panic
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer should report nothing")
	}
}

func TestTraceCodecRoundTrip(t *testing.T) {
	evs := []Event{
		{EvCycleStart, ActorServer, 0, 0, 3},
		{EvSnapshotPublish, ActorServer, 0, 0, 0x1234abcd},
		{EvReadValidate, 2, 5, 17, 9},
		{EvReadAbort, 2, 5, 18, 9},
		{EvUplinkVerdict, 3, 6, 0, 1},
		{EvRetune, 1, 7, -1, 2},
		{EvDoze, 1, 8, 0, 40},
		{EvCycleEnd, ActorServer, 8, 311, 311},
	}
	b := EncodeTrace(evs)
	if len(b) != len(evs)*traceRecordSize {
		t.Fatalf("encoded %d bytes, want %d", len(b), len(evs)*traceRecordSize)
	}
	got, err := DecodeTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, evs)
	}
	if !bytes.Equal(EncodeTrace(got), b) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestDecodeTraceRejectsBadInput(t *testing.T) {
	if _, err := DecodeTrace(make([]byte, traceRecordSize-1)); err == nil {
		t.Fatal("torn record accepted")
	}
	bad := EncodeTrace([]Event{{EvCycleStart, 0, 0, 0, 0}})
	bad[0] = 0 // invalid kind
	if _, err := DecodeTrace(bad); err == nil {
		t.Fatal("zero kind accepted")
	}
	bad[0] = byte(EvSubReap) + 1
	if _, err := DecodeTrace(bad); err == nil {
		t.Fatal("out-of-range kind accepted")
	}
	if evs, err := DecodeTrace(nil); err != nil || len(evs) != 0 {
		t.Fatalf("empty trace: %v, %v", evs, err)
	}
}

func TestFormatTrace(t *testing.T) {
	s := FormatTrace([]Event{{EvReadAbort, 4, 12, 3, 7}})
	want := "c12 f3 actor=4 read-abort arg=7\n"
	if s != want {
		t.Fatalf("FormatTrace = %q, want %q", s, want)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Event{{EvReadAbort, 4, 12, 3, 7}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("WriteTrace = %q, want %q", buf.String(), want)
	}
	if got := EventKind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind String = %q", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server_commits").Add(42)
	tr := NewTracer(8)
	tr.Emit(EvCycleStart, ActorServer, 3, 0, 1)
	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server_commits"] != 42 {
		t.Fatalf("metrics = %+v", snap)
	}
	if trace := get("/trace"); !strings.Contains(trace, "cycle-start") {
		t.Fatalf("trace = %q", trace)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "profile") {
		t.Fatalf("pprof index = %q", idx[:min(len(idx), 200)])
	}
}

func TestServe(t *testing.T) {
	ln, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	// nil registry/tracer endpoints must not panic either.
	resp2, err := http.Get("http://" + ln.Addr().String() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
}
