package server

import (
	"errors"
	"reflect"
	"testing"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
)

func readAt(obj int, cycle int64) protocol.ReadAt {
	return protocol.ReadAt{Obj: obj, Cycle: cmatrix.Cycle(cycle)}
}

func write(obj int, val string) protocol.ObjectWrite {
	return protocol.ObjectWrite{Obj: obj, Value: []byte(val)}
}

// across is a single-server SubmitAcross: one projection, local reads
// unless remote.
func across(s *Server, req protocol.UpdateRequest, remote bool) error {
	return SubmitAcross([]*Server{s}, []protocol.UpdateRequest{req}, []bool{remote})
}

// TestPrepareValidationMatchesSubmit drives one request stream through
// SubmitUpdate on one server and through a single-server SubmitAcross
// (local reads, so Apply) on its twin, for each control representation.
// Both entry points run the same shape → admit → install pipeline, so
// every request must get the same verdict, error value and text, and the
// twins must end with equal values, equal audit logs, equal counters and
// traces, and a control state that passes VerifyControl.
func TestPrepareValidationMatchesSubmit(t *testing.T) {
	const conflict2 = "server: transaction conflicts with a committed update: object 2 written during cycle 1, read at cycle 1"
	reads := func(r ...protocol.ReadAt) []protocol.ReadAt { return r }
	writes := func(w ...protocol.ObjectWrite) []protocol.ObjectWrite { return w }
	steps := []struct {
		name  string
		cycle bool // StartCycle on both twins first
		req   protocol.UpdateRequest
		want  error  // the verdict
		text  string // and its text, when refused
	}{
		{name: "blind write", req: protocol.UpdateRequest{Writes: writes(write(2, "v"))}},
		{name: "stale read", req: protocol.UpdateRequest{Reads: reads(readAt(2, 1)), Writes: writes(write(3, "w"))},
			want: ErrConflict, text: conflict2},
		{name: "stale among duplicate reads", req: protocol.UpdateRequest{Reads: reads(readAt(0, 1), readAt(2, 2), readAt(2, 1)), Writes: writes(write(3, "w"))},
			want: ErrConflict, text: conflict2},
		{name: "duplicate reads, duplicate writes", cycle: true, req: protocol.UpdateRequest{
			Reads:  reads(readAt(2, 2), readAt(0, 2), readAt(2, 2)),
			Writes: writes(write(1, "first"), write(3, "x"), write(1, "last"))}},
		{name: "write-free", req: protocol.UpdateRequest{Reads: reads(readAt(0, 2), readAt(4, 1))}},
		{name: "empty", req: protocol.UpdateRequest{}},
		{name: "read-modify-write", cycle: true, req: protocol.UpdateRequest{
			Reads: reads(readAt(1, 3), readAt(3, 3)), Writes: writes(write(3, "rmw"), write(7, "z"))}},
	}
	for _, alg := range []protocol.Algorithm{protocol.FMatrix, protocol.RMatrix, protocol.Grouped} {
		t.Run(alg.String(), func(t *testing.T) {
			var twins [2]*Server
			for i := range twins {
				s, err := New(Config{Objects: 8, ObjectBits: 64, Algorithm: alg, Groups: 2, Audit: true, Trace: obs.NewTracer(64)})
				if err != nil {
					t.Fatal(err)
				}
				s.StartCycle()
				twins[i] = s
			}
			single, acrossed := twins[0], twins[1]
			for _, st := range steps {
				if st.cycle {
					single.StartCycle()
					acrossed.StartCycle()
				}
				for _, got := range []error{single.SubmitUpdate(st.req), across(acrossed, st.req, false)} {
					if !errors.Is(got, st.want) || (st.want != nil && got.Error() != st.text) {
						t.Fatalf("%s: got %v, want %v (%q)", st.name, got, st.want, st.text)
					}
				}
			}
			for _, s := range twins {
				if err := s.VerifyControl(); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := single.AuditLog(), acrossed.AuditLog(); !reflect.DeepEqual(a, b) {
				t.Fatalf("audit logs differ:\n single %v\n across %v", a, b)
			}
			for _, c := range []func(*Server) *obs.Counter{
				func(s *Server) *obs.Counter { return s.cCommits },
				func(s *Server) *obs.Counter { return s.cAborts },
				func(s *Server) *obs.Counter { return s.cUplink },
			} {
				if a, b := c(single).Load(), c(acrossed).Load(); a != b {
					t.Fatalf("counters differ: %d single, %d across", a, b)
				}
			}
			if c := single.cCommits.Load(); c != 3 {
				t.Fatalf("server_commits = %d, want 3", c)
			}
			a, b := single.StartCycle(), acrossed.StartCycle()
			if !reflect.DeepEqual(a.Values, b.Values) {
				t.Fatalf("values differ:\n single %q\n across %q", a.Values, b.Values)
			}
			if one, three := string(a.Values[1]), string(a.Values[3]); one != "last" || three != "rmw" {
				t.Fatalf("objects 1, 3 = %q, %q, want the last duplicate write and the later overwrite", one, three)
			}
			if controlFingerprint(a) != controlFingerprint(b) {
				t.Fatal("published control information differs between the twins")
			}
			if a, b := single.Tracer().Events(), acrossed.Tracer().Events(); !reflect.DeepEqual(a, b) {
				t.Fatalf("traces differ:\n single %v\n across %v", a, b)
			}
		})
	}
}

// TestSubmitAcrossAllOrNothing: a cross-server commit installs on every
// server or on none. Two servers, each beside an untouched twin with the
// same history; a projection on the last server that is stale or
// malformed refuses the whole transaction, and the first server must
// then publish exactly its twin's values, control and audit log. The
// same transaction with a current read commits on both, the read-only
// first projection installing nothing.
func TestSubmitAcrossAllOrNothing(t *testing.T) {
	servers := make([]*Server, 3)
	for i := range servers {
		servers[i] = newTestServer(t, protocol.FMatrix, 4)
		servers[i].StartCycle()
		if err := servers[i].SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(0, "a")}}); err != nil {
			t.Fatal(err)
		}
	}
	first, twin, last := servers[0], servers[1], servers[2]
	wide := string(make([]byte, 9)) // slots hold 8 bytes
	head := protocol.UpdateRequest{Reads: []protocol.ReadAt{readAt(1, 1)}, Writes: []protocol.ObjectWrite{write(1, "head")}}
	for _, tc := range []struct {
		name string
		tail protocol.UpdateRequest
		want error
	}{
		{"stale read on the last server", protocol.UpdateRequest{Reads: []protocol.ReadAt{readAt(0, 1)}, Writes: []protocol.ObjectWrite{write(2, "t")}}, ErrConflict},
		{"oversize value on the last server", protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(2, wide)}}, nil},
		{"out-of-range read on the last server", protocol.UpdateRequest{Reads: []protocol.ReadAt{readAt(4, 1)}}, nil},
	} {
		err := SubmitAcross([]*Server{first, last}, []protocol.UpdateRequest{head, tc.tail}, []bool{true, true})
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) || (tc.want == nil && errors.Is(err, ErrConflict)) {
			t.Fatalf("%s: got %v", tc.name, err)
		}
	}
	if c := first.cAborts.Load(); c != 0 {
		t.Fatalf("the first server counted %d aborts for refusals that were not its own", c)
	}
	if c := last.cAborts.Load(); c != 1 {
		t.Fatalf("the last server counted %d aborts, want 1 (the stale read; malformed is not an abort)", c)
	}
	a, b := first.StartCycle(), twin.StartCycle()
	if !reflect.DeepEqual(a.Values, b.Values) || !a.Matrix.Equal(b.Matrix) {
		t.Fatalf("a refused transaction changed the first server:\n values %q\n twin   %q", a.Values, b.Values)
	}
	if x, y := first.AuditLog(), twin.AuditLog(); !reflect.DeepEqual(x, y) {
		t.Fatalf("a refused transaction reached the first server's audit log:\n %v\n twin %v", x, y)
	}

	tail := protocol.UpdateRequest{Reads: []protocol.ReadAt{readAt(0, 2)}, Writes: []protocol.ObjectWrite{write(2, "tail")}}
	readOnly := protocol.UpdateRequest{Reads: []protocol.ReadAt{readAt(3, 2)}}
	last.StartCycle()
	if err := SubmitAcross([]*Server{first, last}, []protocol.UpdateRequest{readOnly, tail}, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	if got := len(first.AuditLog()); got != 1 {
		t.Fatalf("read-only projection left %d audit entries, want the setup's 1", got)
	}
	want := []cmatrix.Commit{{ReadSet: []int{}, WriteSet: []int{0}, Cycle: 1}, {ReadSet: []int{0}, WriteSet: []int{2}, Cycle: 2}}
	if got := last.AuditLog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("last server's audit log:\n got %v\nwant %v", got, want)
	}
}

// TestRemoteCommitSkipsVerify: a remote-read commit degrades the
// control state conservatively, and VerifyControl stops claiming
// Theorem 2 equality instead of reporting a false violation.
func TestRemoteCommitSkipsVerify(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 4)
	s.StartCycle()
	if err := s.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(0, "a"), write(1, "b")}}); err != nil {
		t.Fatal(err)
	}
	s.StartCycle()
	req := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{readAt(0, 2)},
		Writes: []protocol.ObjectWrite{write(2, "c")},
	}
	if err := across(s, req, true); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyControl(); err != nil {
		t.Fatalf("VerifyControl after remote commit: %v", err)
	}
	// The conservative column takes the diagonal bound: the commit
	// cycle at the written row, each other row's last-write cycle
	// (objects 0 and 1 were written at cycle 1), zero at never-written
	// rows — dominating the exact rule, which would have left rows 1
	// and 3 at 0.
	snap := s.control.Snapshot()
	for i, want := range []cmatrix.Cycle{1, 1, 2, 0} {
		if got := snap.Bound(i, 2); got != want {
			t.Fatalf("conservative C(%d,2) = %d, want %d", i, got, want)
		}
	}
}

// TestMalformedFirst pins the commit path's one precedence rule: a
// request naming an object out of range or carrying a value wider than
// its slot is refused as malformed even when a stale read would also
// refuse it — and a malformed request never commits and never counts as
// a validation abort, on either entrance.
func TestMalformedFirst(t *testing.T) {
	wide := string(make([]byte, 9)) // slots hold 8 bytes
	for _, tc := range []struct {
		name string
		req  protocol.UpdateRequest
		text string
	}{
		{"stale read before an out-of-range read", protocol.UpdateRequest{
			Reads: []protocol.ReadAt{readAt(0, 1), readAt(4, 1)}},
			"server: object 4 out of range [0,4)"},
		{"stale read before an out-of-range write", protocol.UpdateRequest{
			Reads: []protocol.ReadAt{readAt(0, 1)}, Writes: []protocol.ObjectWrite{write(-1, "v")}},
			"server: object -1 out of range [0,4)"},
		{"stale read before an oversize value", protocol.UpdateRequest{
			Reads: []protocol.ReadAt{readAt(0, 1)}, Writes: []protocol.ObjectWrite{write(2, wide)}},
			"server: value for object 2 is 9 bytes, broadcast slot holds 64 bits"},
	} {
		for _, viaAcross := range []bool{false, true} {
			s := newTestServer(t, protocol.FMatrix, 4)
			s.StartCycle()
			// Object 0 is stale for a cycle-1 read.
			if err := s.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(0, "a")}}); err != nil {
				t.Fatal(err)
			}
			var err error
			if viaAcross {
				err = across(s, tc.req, false)
			} else {
				err = s.SubmitUpdate(tc.req)
			}
			if err == nil || err.Error() != tc.text || errors.Is(err, ErrConflict) {
				t.Fatalf("%s (across %v): got %v, want %q", tc.name, viaAcross, err, tc.text)
			}
			if c, a := s.cCommits.Load(), s.cAborts.Load(); c != 1 || a != 0 {
				t.Fatalf("%s (across %v): commits %d, aborts %d; want 1, 0", tc.name, viaAcross, c, a)
			}
			if len(s.AuditLog()) != 1 {
				t.Fatalf("%s (across %v): malformed request reached the audit log", tc.name, viaAcross)
			}
		}
	}
}
