package netcast

import (
	"net"
	"testing"
	"time"

	"broadcastcc/internal/client"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// TestBackoffDeterministic: the schedule is a pure function of the
// policy — same seed, same nanoseconds; different seeds decorrelate.
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{Attempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: 9}
	q := p
	same := 0
	for i := 1; i <= 5; i++ {
		if p.Backoff(i) != q.Backoff(i) {
			t.Fatalf("attempt %d: schedule not deterministic", i)
		}
	}
	r := p
	r.Seed = 10
	for i := 1; i <= 5; i++ {
		if p.Backoff(i) == r.Backoff(i) {
			same++
		}
	}
	if same == 5 {
		t.Fatal("jitter ignores the seed")
	}
}

// TestBackoffEnvelope: each sleep lies in [cap/2, cap) of the
// exponential, MaxDelay-capped envelope.
func TestBackoffEnvelope(t *testing.T) {
	p := RetryPolicy{BaseDelay: 8 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 3}
	envelopes := []time.Duration{
		8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond,
		50 * time.Millisecond, 50 * time.Millisecond,
	}
	for i, env := range envelopes {
		d := p.Backoff(i + 1)
		if d < env/2 || d >= env {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", i+1, d, env/2, env)
		}
	}
	// Zero-valued policy still produces sane defaults.
	var def RetryPolicy
	if d := def.Backoff(1); d < 5*time.Millisecond || d >= 10*time.Millisecond {
		t.Errorf("default first backoff %v outside [5ms, 10ms)", d)
	}
}

// TestDialRetryExhaustion: a dead address fails after exactly Attempts
// tries with the last error wrapped.
func TestDialRetryExhaustion(t *testing.T) {
	tries := 0
	_, err := dialRetry(RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond}, "test", func() (int, error) {
		tries++
		return 0, errTest
	})
	if err == nil || tries != 3 {
		t.Fatalf("tries=%d err=%v", tries, err)
	}
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "refused" }

// TestTuneRetryThroughLateListener reserves a port, frees it (dials now
// refuse), and brings the broadcast server itself up on that address
// only after the tuner has burned a few attempts. The retry policy must
// carry the tuner through to a decoded broadcast cycle.
func TestTuneRetryThroughLateListener(t *testing.T) {
	bsrv, err := server.New(server.Config{Objects: 8, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()

	// Reserve an address, then free it so the first dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	up := make(chan *Server, 1)
	go func() {
		time.Sleep(60 * time.Millisecond)
		ns, err := Serve(bsrv, addr, "127.0.0.1:0")
		if err != nil {
			t.Errorf("late listener: %v", err)
		}
		up <- ns
	}()

	tuner, err := TuneRetry(addr, RetryPolicy{
		Attempts:  20,
		BaseDelay: 20 * time.Millisecond,
		MaxDelay:  50 * time.Millisecond,
		Seed:      1,
	})
	ns := <-up
	if ns == nil {
		t.FailNow()
	}
	defer ns.Close()
	if err != nil {
		t.Fatalf("retry never connected: %v", err)
	}
	defer tuner.Close()

	c := client.New(client.Config{Algorithm: protocol.FMatrix}, tuner.Subscribe(8))
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ns.Step(); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	cb, ok := c.AwaitCycle()
	close(stop)
	if !ok || cb == nil {
		t.Fatal("no cycle decoded from the late listener")
	}

	// The uplink dial path shares the policy; against a live address the
	// first attempt wins.
	ul, err := DialUplinkRetry(ns.UplinkAddr(), RetryPolicy{Attempts: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ul.Close()
	if err := ul.SubmitUpdate(protocol.UpdateRequest{
		Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte("v")}},
	}); err != nil {
		t.Fatalf("uplink after retry-tune: %v", err)
	}
}
