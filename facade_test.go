package broadcastcc

import (
	"errors"
	"testing"
	"time"
)

// The facade must expose a workable end-to-end surface: this exercises
// exactly what README's quickstart shows, through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Objects:    4,
		ObjectBits: 256,
		Algorithm:  FMatrix,
		InitialValues: [][]byte{
			[]byte("a"), []byte("b"), []byte("c"), []byte("d"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(ClientConfig{Algorithm: FMatrix}, srv.Subscribe(8))

	srv.StartCycle()
	if _, ok := cli.AwaitCycle(); !ok {
		t.Fatal("no cycle")
	}
	txn := cli.BeginReadOnly()
	v0, err := txn.Read(0)
	if err != nil || string(v0) != "a" {
		t.Fatalf("Read = %q, %v", v0, err)
	}
	rs, err := txn.Commit()
	if err != nil || len(rs) != 1 {
		t.Fatalf("Commit = %v, %v", rs, err)
	}

	upd := cli.BeginUpdate()
	if _, err := upd.Read(1); err != nil {
		t.Fatal(err)
	}
	if err := upd.Write(2, []byte("c2")); err != nil {
		t.Fatal(err)
	}
	if err := upd.Commit(srv); err != nil {
		t.Fatal(err)
	}
	cb := srv.StartCycle()
	if string(cb.Values[2]) != "c2" {
		t.Fatalf("update not visible: %q", cb.Values[2])
	}
}

func TestFacadeHistoryChecking(t *testing.T) {
	h, err := ParseHistory("r1(IBM) w2(IBM) c2 r3(IBM) r3(Sun) w4(Sun) c4 r1(Sun) c1 c3")
	if err != nil {
		t.Fatal(err)
	}
	if ConflictSerializable(h).OK {
		t.Error("example 1 is not serializable")
	}
	if ViewSerializable(h).OK {
		t.Error("example 1 is not view serializable")
	}
	if !Approx(h).OK {
		t.Error("APPROX must accept example 1")
	}
	if !UpdateConsistent(h).OK {
		t.Error("example 1 is update consistent")
	}
	if _, err := ParseHistory("zz"); err == nil {
		t.Error("bad history should fail to parse")
	}
}

func TestFacadeAlgorithmNames(t *testing.T) {
	for _, name := range []string{"datacycle", "r-matrix", "f-matrix", "f-matrix-no", "grouped"} {
		if _, err := ParseAlgorithm(name); err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", name, err)
		}
	}
	if Datacycle.String() != "Datacycle" || FMatrixNo.String() != "F-Matrix-No" {
		t.Error("algorithm names wrong")
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Algorithm = RMatrix
	cfg.Objects = 20
	cfg.ObjectBits = 512
	cfg.ClientTxns = 60
	cfg.MeasureFrom = 10
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseTime.N() != 50 || res.ResponseTime.Mean() <= 0 {
		t.Fatalf("unexpected result: %+v", res.ResponseTime)
	}
}

func TestFacadeNetworkRuntime(t *testing.T) {
	srv, err := NewServer(ServerConfig{Objects: 3, ObjectBits: 64, Algorithm: RMatrix})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ns, err := ServeBroadcast(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	tuner, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	uplink, err := DialUplink(ns.UplinkAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer uplink.Close()

	cli := NewClient(ClientConfig{Algorithm: RMatrix}, tuner.Subscribe(8))
	deadline := time.Now().Add(5 * time.Second)
	for ns.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tuner never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ns.Step(); err != nil {
		t.Fatal(err)
	}
	if _, ok := cli.AwaitCycle(); !ok {
		t.Fatal("never received a cycle over TCP")
	}
	txn := cli.BeginUpdate()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(uplink); err != nil {
		t.Fatal(err)
	}
	if srv.Obs().Counter("server_commits").Load() != 1 {
		t.Fatal("uplink commit did not land")
	}
}

func TestFacadeErrorsExposed(t *testing.T) {
	srv, err := NewServer(ServerConfig{Objects: 2, ObjectBits: 64, Algorithm: Datacycle})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.StartCycle()
	// Overwrite object 0 during cycle 1, then submit a request whose
	// read of object 0 happened at cycle 1: ErrConflict.
	if err := srv.SubmitUpdate(UpdateRequest{
		Writes: []ObjectWrite{{Obj: 0, Value: []byte("w")}},
	}); err != nil {
		t.Fatal(err)
	}
	err = srv.SubmitUpdate(UpdateRequest{
		Reads:  []ReadAt{{Obj: 0, Cycle: 1}},
		Writes: []ObjectWrite{{Obj: 1, Value: []byte("x")}},
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("SubmitUpdate = %v, want ErrConflict", err)
	}

	// ErrInconsistentRead surfaces from the client runtime.
	cli := NewClient(ClientConfig{Algorithm: Datacycle}, srv.Subscribe(8))
	cli.AwaitCycle() // cycle 1 snapshot (pre-writes)
	txn := cli.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	srv.StartCycle()
	cli.AwaitCycle()
	if _, err := txn.Read(1); !errors.Is(err, ErrInconsistentRead) {
		t.Fatalf("Read = %v, want ErrInconsistentRead", err)
	}
}

// BuildProgram must predict the layout NewServer checks a program
// against, default timestamp width included.
func TestBuildProgramMatchesServer(t *testing.T) {
	for _, alg := range []Algorithm{Datacycle, RMatrix, FMatrix, FMatrixNo, GroupedMatrix} {
		for _, ts := range []int{0, 16} {
			cfg := ServerConfig{Objects: 12, ObjectBits: 256, TimestampBits: ts, Algorithm: alg, Groups: 3}
			prog, err := BuildProgram(cfg, ZipfWeights(12, 0.95), 3, 2)
			if err != nil {
				t.Fatalf("%v TS=%d: %v", alg, ts, err)
			}
			cfg.Program = prog
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatalf("%v TS=%d: NewServer refused BuildProgram's program: %v", alg, ts, err)
			}
			srv.Close()
		}
	}
}
