package server

import (
	"errors"
	"reflect"
	"testing"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

func readAt(obj int, cycle int64) protocol.ReadAt {
	return protocol.ReadAt{Obj: obj, Cycle: cmatrix.Cycle(cycle)}
}

func write(obj int, val string) protocol.ObjectWrite {
	return protocol.ObjectWrite{Obj: obj, Value: []byte(val)}
}

// TestPrepareDecideCommit drives one two-shot commit end to end and
// checks the data plane, the pins, and the decision idempotence.
func TestPrepareDecideCommit(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 4)
	s.StartCycle()
	if err := s.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(0, "a")}}); err != nil {
		t.Fatal(err)
	}
	s.StartCycle() // cycle 2; the write above committed during cycle 1
	req := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{readAt(0, 2)},
		Writes: []protocol.ObjectWrite{write(1, "b")},
	}
	if err := s.PrepareUpdate(7, req, true); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if owner, ok := s.PinnedBy(1); !ok || owner != 7 {
		t.Fatalf("write object unpinned after prepare (owner %d, %v)", owner, ok)
	}
	if owner, ok := s.PinnedBy(0); !ok || owner != 7 {
		t.Fatalf("read object unpinned after prepare (owner %d, %v)", owner, ok)
	}
	// Duplicate prepare frames are idempotent.
	if err := s.PrepareUpdate(7, req, true); err != nil {
		t.Fatalf("duplicate prepare: %v", err)
	}
	// A local commit writing a pinned object must be refused.
	err := s.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(1, "x")}})
	if !errors.Is(err, ErrPinned) {
		t.Fatalf("write to pinned object: got %v, want ErrPinned", err)
	}
	// ...and one writing a pinned *read* too (it would invalidate shot one).
	err = s.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(0, "x")}})
	if !errors.Is(err, ErrPinned) {
		t.Fatalf("write to pinned read: got %v, want ErrPinned", err)
	}
	if err := s.DecideUpdate(7, true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if _, ok := s.PinnedBy(1); ok {
		t.Fatal("pins survived the decision")
	}
	// Duplicate decisions are idempotent; contradictions are not.
	if err := s.DecideUpdate(7, true); err != nil {
		t.Fatalf("duplicate decision: %v", err)
	}
	if err := s.DecideUpdate(7, false); !errors.Is(err, ErrAlreadyDecided) {
		t.Fatalf("contradictory decision: got %v, want ErrAlreadyDecided", err)
	}
	cb := s.StartCycle()
	if got := string(cb.Values[1]); got != "b" {
		t.Fatalf("committed value = %q, want \"b\"", got)
	}
	if got := s.cShardCommits.Load(); got != 1 {
		t.Fatalf("server_shard_commits = %d, want 1", got)
	}
}

// TestPrepareKeepsOwnCopy: a request is valid only for the call
// (protocol.Uplink), so a prepare parks its own copy of the writes.
// Between prepare and decision the request's value bytes and entries
// are overwritten, as a port decoding the next frame into the same
// memory would; the decision still installs, and the audit log still
// records, what was prepared.
func TestPrepareKeepsOwnCopy(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 4)
	s.StartCycle()
	frame := []byte("aaaabb")
	req := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{readAt(3, 1)},
		Writes: []protocol.ObjectWrite{{Obj: 0, Value: frame[0:4:4]}, {Obj: 1, Value: frame[4:6:6]}},
	}
	if err := s.PrepareUpdate(5, req, false); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	copy(frame, "xxxxyy")
	req.Reads[0] = readAt(2, 1)
	req.Writes[0], req.Writes[1] = protocol.ObjectWrite{Obj: 2, Value: frame[4:6:6]}, protocol.ObjectWrite{Obj: 3, Value: frame[0:4:4]}
	if err := s.DecideUpdate(5, true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	cb := s.StartCycle()
	for obj, want := range []string{"aaaa", "bb", "", ""} {
		if got := string(cb.Values[obj]); got != want {
			t.Errorf("object %d installed %q, prepared %q", obj, got, want)
		}
	}
	want := []cmatrix.Commit{{ReadSet: []int{3}, WriteSet: []int{0, 1}, Cycle: 1}}
	if got := s.AuditLog(); !reflect.DeepEqual(got, want) {
		t.Errorf("audit log:\n got %v\nwant %v", got, want)
	}
}

// TestPrepareValidationMatchesSubmit drives one request stream through
// SubmitUpdate on one server and through PrepareUpdate + DecideUpdate
// (local reads, so Apply) on its twin, for each control representation.
// Both entry points run the same shape → admit → install pipeline, so
// every request must get the same verdict, error value and text, and the
// twins must end with equal values, equal audit logs and a control state
// that passes VerifyControl. The one place the verdicts may differ is
// the pin rule itself: a single-shot commit ignores pins on its reads, a
// prepare does not.
func TestPrepareValidationMatchesSubmit(t *testing.T) {
	const (
		conflict2 = "server: transaction conflicts with a committed update: object 2 written during cycle 1, read at cycle 1"
		pinned5   = "server: object pinned by an in-flight cross-shard prepare: object 5 held by token 900"
	)
	reads := func(r ...protocol.ReadAt) []protocol.ReadAt { return r }
	writes := func(w ...protocol.ObjectWrite) []protocol.ObjectWrite { return w }
	steps := []struct {
		name  string
		cycle bool // StartCycle on both twins first
		hold  bool // token 900 first pins object 5 (read) and 6 (write) on both
		req   protocol.UpdateRequest
		want  error  // SubmitUpdate's verdict
		text  string // and its text, when refused
		// prepareWant overrides want for the prepare path (pinned reads).
		prepareWant error
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
		{name: "pinned write", hold: true, req: protocol.UpdateRequest{Writes: writes(write(4, "p"), write(5, "q"))},
			want: ErrPinned, text: pinned5},
		{name: "pinned read and write", req: protocol.UpdateRequest{Reads: reads(readAt(5, 2)), Writes: writes(write(5, "q"))},
			want: ErrPinned, text: pinned5},
		{name: "pinned read, write-free", req: protocol.UpdateRequest{Reads: reads(readAt(5, 2))},
			prepareWant: ErrPinned},
		{name: "read-modify-write beside the pins", cycle: true, req: protocol.UpdateRequest{
			Reads: reads(readAt(1, 3), readAt(3, 3)), Writes: writes(write(3, "rmw"), write(7, "z"))}},
	}
	const blocker = 900
	blockerReq := protocol.UpdateRequest{Reads: reads(readAt(5, 2)), Writes: writes(write(6, "held"))}
	for _, alg := range []protocol.Algorithm{protocol.FMatrix, protocol.RMatrix, protocol.Grouped} {
		t.Run(alg.String(), func(t *testing.T) {
			var twins [2]*Server
			for i := range twins {
				s, err := New(Config{Objects: 8, ObjectBits: 64, Algorithm: alg, Groups: 2, Audit: true})
				if err != nil {
					t.Fatal(err)
				}
				s.StartCycle()
				twins[i] = s
			}
			single, twoShot := twins[0], twins[1]
			for i, st := range steps {
				if st.cycle {
					single.StartCycle()
					twoShot.StartCycle()
				}
				if st.hold {
					for _, s := range twins {
						if err := s.PrepareUpdate(blocker, blockerReq, false); err != nil {
							t.Fatalf("blocker prepare: %v", err)
						}
					}
				}
				got := single.SubmitUpdate(st.req)
				if !errors.Is(got, st.want) || (st.want != nil && got.Error() != st.text) {
					t.Fatalf("%s: SubmitUpdate = %v, want %v (%q)", st.name, got, st.want, st.text)
				}
				token := uint64(i + 1)
				want := st.want
				if st.prepareWant != nil {
					want = st.prepareWant
				}
				got = twoShot.PrepareUpdate(token, st.req, false)
				if !errors.Is(got, want) || (st.want != nil && got.Error() != st.text) {
					t.Fatalf("%s: PrepareUpdate = %v, want %v (%q)", st.name, got, want, st.text)
				}
				if got != nil {
					for obj := 0; obj < 8; obj++ {
						if owner, _ := twoShot.PinnedBy(obj); owner == token {
							t.Fatalf("%s: refused prepare left a pin on object %d", st.name, obj)
						}
					}
					continue
				}
				if err := twoShot.DecideUpdate(token, true); err != nil {
					t.Fatalf("%s: DecideUpdate: %v", st.name, err)
				}
			}
			for _, s := range twins {
				if err := s.DecideUpdate(blocker, false); err != nil {
					t.Fatal(err)
				}
				if err := s.VerifyControl(); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := single.AuditLog(), twoShot.AuditLog(); !reflect.DeepEqual(a, b) {
				t.Fatalf("audit logs differ:\n single  %v\n two-shot %v", a, b)
			}
			if a, b := single.cCommits.Load(), twoShot.cCommits.Load(); a != b || a != 3 {
				t.Fatalf("server_commits = %d single-shot, %d two-shot, want 3 on both", a, b)
			}
			a, b := single.StartCycle(), twoShot.StartCycle()
			if !reflect.DeepEqual(a.Values, b.Values) {
				t.Fatalf("values differ:\n single  %q\n two-shot %q", a.Values, b.Values)
			}
			if one, three := string(a.Values[1]), string(a.Values[3]); one != "last" || three != "rmw" {
				t.Fatalf("objects 1, 3 = %q, %q, want the last duplicate write and the later overwrite", one, three)
			}
			if controlFingerprint(a) != controlFingerprint(b) {
				t.Fatal("published control information differs between the twins")
			}
		})
	}
}

// TestPrepareTTLExpiry: an undecided prepare is timeout-aborted by the
// cycle clock, its pins released, and a late commit decision fails
// loudly while a late abort is a clean no-op.
func TestPrepareTTLExpiry(t *testing.T) {
	s, err := New(Config{Objects: 3, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	s.StartCycle() // cycle 1
	req := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(0, "z")}}
	if err := s.PrepareUpdate(11, req, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < PrepareTTL; i++ { // cycles 2..1+PrepareTTL == expires: still live
		s.StartCycle()
	}
	if _, ok := s.PinnedBy(0); !ok {
		t.Fatal("prepare expired before its TTL")
	}
	s.StartCycle() // cycle 2+PrepareTTL > expires: timeout-abort
	if _, ok := s.PinnedBy(0); ok {
		t.Fatal("pins survived the TTL")
	}
	if err := s.DecideUpdate(11, true); !errors.Is(err, ErrAlreadyDecided) {
		t.Fatalf("late commit after expiry: got %v, want ErrAlreadyDecided", err)
	}
	if err := s.DecideUpdate(11, false); err != nil {
		t.Fatalf("late abort after expiry: %v", err)
	}
	if got := s.cShardExpired.Load(); got != 1 {
		t.Fatalf("server_shard_prepare_expired = %d, want 1", got)
	}
	if got := string(s.StartCycle().Values[0]); got != "" {
		t.Fatalf("expired prepare committed anyway: %q", got)
	}
}

// TestDecideUnknownToken: commit of a never-prepared token is the
// atomicity-loss case and must error; abort is a no-op.
func TestDecideUnknownToken(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 3)
	s.StartCycle()
	if err := s.DecideUpdate(99, true); !errors.Is(err, ErrUnknownPrepare) {
		t.Fatalf("unknown commit: got %v, want ErrUnknownPrepare", err)
	}
	if err := s.DecideUpdate(99, false); err != nil {
		t.Fatalf("unknown abort: %v", err)
	}
}

// TestConflictingPreparesSerialize: two prepares touching the same
// object cannot be in flight together — the second is refused with
// ErrPinned until the first is decided.
func TestConflictingPreparesSerialize(t *testing.T) {
	s := newTestServer(t, protocol.FMatrix, 4)
	s.StartCycle()
	a := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(1, "a")}}
	b := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(1, "b")}}
	if err := s.PrepareUpdate(1, a, true); err != nil {
		t.Fatal(err)
	}
	if err := s.PrepareUpdate(2, b, true); !errors.Is(err, ErrPinned) {
		t.Fatalf("overlapping prepare: got %v, want ErrPinned", err)
	}
	if err := s.DecideUpdate(1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.PrepareUpdate(3, b, true); err != nil {
		t.Fatalf("prepare after release: %v", err)
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
	if err := s.PrepareUpdate(5, req, true); err != nil {
		t.Fatal(err)
	}
	if err := s.DecideUpdate(5, true); err != nil {
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
// its slot is refused as malformed even when a stale read or a pinned
// object would also refuse it — and a malformed request never commits,
// never pins and never counts as a validation abort.
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
		{"pinned write before an oversize value", protocol.UpdateRequest{
			Writes: []protocol.ObjectWrite{write(1, "v"), write(2, wide)}},
			"server: value for object 2 is 9 bytes, broadcast slot holds 64 bits"},
		{"pinned read before an out-of-range read", protocol.UpdateRequest{
			Reads: []protocol.ReadAt{readAt(1, 1), readAt(9, 1)}, Writes: []protocol.ObjectWrite{write(3, "v")}},
			"server: object 9 out of range [0,4)"},
	} {
		for _, twoShot := range []bool{false, true} {
			s := newTestServer(t, protocol.FMatrix, 4)
			s.StartCycle()
			// Object 0 is stale for a cycle-1 read; object 1 is pinned.
			if err := s.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(0, "a")}}); err != nil {
				t.Fatal(err)
			}
			if err := s.PrepareUpdate(900, protocol.UpdateRequest{Writes: []protocol.ObjectWrite{write(1, "b")}}, false); err != nil {
				t.Fatal(err)
			}
			var err error
			if twoShot {
				err = s.PrepareUpdate(1, tc.req, false)
			} else {
				err = s.SubmitUpdate(tc.req)
			}
			if err == nil || err.Error() != tc.text || errors.Is(err, ErrConflict) || errors.Is(err, ErrPinned) {
				t.Fatalf("%s (two-shot %v): got %v, want %q", tc.name, twoShot, err, tc.text)
			}
			if c, a := s.cCommits.Load(), s.cAborts.Load(); c != 1 || a != 0 || s.cShardPrepareRefused.Load() != 0 {
				t.Fatalf("%s (two-shot %v): commits %d, aborts %d, refused prepares %d; want 1, 0, 0",
					tc.name, twoShot, c, a, s.cShardPrepareRefused.Load())
			}
			for obj := 0; obj < 4; obj++ {
				if owner, held := s.PinnedBy(obj); held && owner != 900 {
					t.Fatalf("%s: malformed prepare pinned object %d", tc.name, obj)
				}
			}
			if err := s.DecideUpdate(1, true); twoShot && !errors.Is(err, ErrUnknownPrepare) {
				t.Fatalf("%s: malformed prepare was parked (decide: %v)", tc.name, err)
			}
			if len(s.AuditLog()) != 1 {
				t.Fatalf("%s (two-shot %v): malformed request reached the audit log", tc.name, twoShot)
			}
		}
	}
}
