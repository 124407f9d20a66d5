package client_test

import (
	"errors"
	"testing"

	"broadcastcc/internal/bctest"
	"broadcastcc/internal/client"
	"broadcastcc/internal/core"
	"broadcastcc/internal/faultair"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// dozeSetup wires a server (auditing commits) to a client whose tuner
// dozes through the scripted cycle window; the tuner counts into the
// returned registry.
func dozeSetup(t *testing.T, alg protocol.Algorithm, win faultair.Window, cfg client.Config) (*server.Server, *obs.Registry, *client.Client) {
	t.Helper()
	srv, err := server.New(server.Config{Objects: 4, ObjectBits: 64, Algorithm: alg, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	sched := faultair.NewSchedule(faultair.Profile{Windows: []faultair.Window{win}})
	reg := obs.NewRegistry()
	lis := faultair.Listen(srv, sched, win.Client, 64, reg)
	c := client.New(cfg, lis.Subscribe(64))
	t.Cleanup(func() { lis.Close(); srv.Close() })
	return srv, reg, c
}

// TestDozeRecoveryCommits: a client dozes through two full cycles in the
// middle of a transaction. An independent update commits meanwhile. On
// retune the transaction continues, reads the fresh post-doze value, and
// commits; the induced history passes the update-consistency checker.
func TestDozeRecoveryCommits(t *testing.T) {
	srv, reg, c := dozeSetup(t, protocol.FMatrix,
		faultair.Window{Client: 0, From: 2, To: 3},
		client.Config{Algorithm: protocol.FMatrix})

	// Cycle 1 on the air; the transaction reads obj 0 from it.
	srv.StartCycle()
	// While the client dozes (cycles 2-3): an independent blind write to
	// obj 2 — no read-write dependency with the client's read set.
	txnUp := srv.Begin()
	if err := txnUp.Write(2, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := txnUp.Commit(); err != nil {
		t.Fatal(err)
	}
	srv.StartCycle() // cycle 2 (dozed)
	srv.StartCycle() // cycle 3 (dozed)
	srv.StartCycle() // cycle 4 (received)

	if _, ok := c.AwaitCycle(); !ok {
		t.Fatal("no first cycle")
	}
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}

	// Wake up: the tuner delivers cycle 4 next; the client counts the
	// gap and the transaction simply continues.
	cb, ok := c.AwaitCycle()
	if !ok {
		t.Fatal("tuned out during doze")
	}
	if missed := c.Stats().CyclesMissed; cb.Number != 4 || missed != 2 {
		t.Fatalf("retuned at cycle %d with %d missed, want cycle 4 with 2 missed", cb.Number, missed)
	}

	v, err := txn.Read(2)
	if err != nil {
		t.Fatalf("post-doze read aborted: %v", err)
	}
	if string(v) != "fresh" {
		t.Fatalf("post-doze read returned %q, want the value committed during the doze", v)
	}
	rs, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// Audit the whole run: the committed updates plus this client's read
	// set must form an update-consistent history (Theorem 3's criterion).
	h := bctest.InducedHistory(srv.AuditLog(), [][]protocol.ReadAt{rs})
	if verdict := core.UpdateConsistent(h); !verdict.OK {
		t.Fatalf("induced history not update consistent: %s\n%s", verdict.Reason, h)
	}

	st := c.Stats()
	if st.Gaps != 1 || st.CyclesMissed != 2 {
		t.Errorf("stats = %+v, want Gaps=1 CyclesMissed=2", st)
	}
	if dozed := reg.Counter(faultair.CtrDozed).Load(); dozed != 2 {
		t.Errorf("%s = %d, want 2", faultair.CtrDozed, dozed)
	}
}

// TestDozeRecoveryAborts: same doze, but the update committed during the
// gap writes both an object the client already read and the one it reads
// next — the classic non-serializable interleaving. The read condition
// must fail on retune (and only then: the doze itself is not a reason to
// abort, the conflict is).
func TestDozeRecoveryAborts(t *testing.T) {
	srv, _, c := dozeSetup(t, protocol.FMatrix,
		faultair.Window{Client: 0, From: 2, To: 3},
		client.Config{Algorithm: protocol.FMatrix})

	srv.StartCycle()
	txnUp := srv.Begin()
	if err := txnUp.Write(0, []byte("x0'")); err != nil {
		t.Fatal(err)
	}
	if err := txnUp.Write(2, []byte("x2'")); err != nil {
		t.Fatal(err)
	}
	if err := txnUp.Commit(); err != nil {
		t.Fatal(err)
	}
	srv.StartCycle()
	srv.StartCycle()
	srv.StartCycle()

	if _, ok := c.AwaitCycle(); !ok {
		t.Fatal("no first cycle")
	}
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.AwaitCycle(); !ok || c.Stats().CyclesMissed != 2 {
		t.Fatalf("retune: missed=%d ok=%v", c.Stats().CyclesMissed, ok)
	}
	if _, err := txn.Read(2); !errors.Is(err, client.ErrInconsistentRead) {
		t.Fatalf("Read(2) = %v, want ErrInconsistentRead: the client read obj 0 "+
			"before the update that wrote objects 0 and 2, then obj 2 after it", err)
	}
	if st := c.Stats(); st.ReadAborts != 1 {
		t.Errorf("stats = %+v, want ReadAborts=1", st)
	}
}

// TestDozeRecoveryDatacycle runs the recovery scenarios under the
// conservative vector protocol: any write to a previously-read object
// during the doze aborts; an untouched read set survives.
func TestDozeRecoveryDatacycle(t *testing.T) {
	run := func(t *testing.T, overwriteRead bool) (err error, rs []protocol.ReadAt, srv *server.Server) {
		srv, _, c := dozeSetup(t, protocol.Datacycle,
			faultair.Window{Client: 0, From: 2, To: 2},
			client.Config{Algorithm: protocol.Datacycle})
		srv.StartCycle()
		txnUp := srv.Begin()
		obj := 2
		if overwriteRead {
			obj = 0
		}
		if err := txnUp.Write(obj, []byte("w")); err != nil {
			t.Fatal(err)
		}
		if err := txnUp.Commit(); err != nil {
			t.Fatal(err)
		}
		srv.StartCycle() // cycle 2 (dozed)
		srv.StartCycle() // cycle 3

		if _, ok := c.AwaitCycle(); !ok {
			t.Fatal("no first cycle")
		}
		txn := c.BeginReadOnly()
		if _, err := txn.Read(0); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.AwaitCycle(); !ok || c.Stats().CyclesMissed != 1 {
			t.Fatalf("retune: missed=%d ok=%v", c.Stats().CyclesMissed, ok)
		}
		if _, err := txn.Read(1); err != nil {
			return err, nil, srv
		}
		rs, err = txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return nil, rs, srv
	}

	t.Run("independent write commits", func(t *testing.T) {
		err, rs, srv := run(t, false)
		if err != nil {
			t.Fatalf("transaction aborted on an independent write: %v", err)
		}
		h := bctest.InducedHistory(srv.AuditLog(), [][]protocol.ReadAt{rs})
		if verdict := core.UpdateConsistent(h); !verdict.OK {
			t.Fatalf("induced history not update consistent: %s", verdict.Reason)
		}
	})
	t.Run("overwritten read aborts", func(t *testing.T) {
		err, _, _ := run(t, true)
		if !errors.Is(err, client.ErrInconsistentRead) {
			t.Fatalf("err = %v, want ErrInconsistentRead", err)
		}
	})
}
