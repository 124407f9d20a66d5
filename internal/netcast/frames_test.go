package netcast

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"broadcastcc/internal/protocol"
)

// The exported frame codec is what middleboxes (the faultair proxy)
// speak; its rejection behaviour is part of the wire contract.

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length prefix: err = %v, want limit rejection", err)
	}
	// The reader must reject on the header alone — a malicious length
	// must not trigger a 4 GiB allocation or a blocking read.
}

func TestReadFrameTruncated(t *testing.T) {
	// Header promises 9 payload bytes; only one arrives.
	_, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 9, 'x'}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// A whole header with no payload behind it is a torn frame too.
	_, err = ReadFrame(bytes.NewReader([]byte{0, 0, 0, 9}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header without payload: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Header itself cut short mid-way.
	_, err = ReadFrame(bytes.NewReader([]byte{0, 0}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// A clean stream end before any header is a plain EOF, so stream
	// consumers can tell shutdown from corruption.
	_, err = ReadFrame(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestWriteFrameExportedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("via the exported API")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || string(got) != "via the exported API" {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if err := WriteFrame(io.Discard, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized WriteFrame must fail")
	}
}

// TestTunerReceiveAllocs: a tuner reads each frame's length prefix
// into storage it owns and the frame into the one its slot recycles, so
// a receive whose last frame was released allocates nothing; ReadFrame,
// whose prefix escapes from its own frame, allocates the frame and one
// more.
func TestTunerReceiveAllocs(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, []byte("a cycle frame")); err != nil {
		t.Fatal(err)
	}
	r, tn := bytes.NewReader(stream.Bytes()), new(Tuner)
	for _, read := range []struct {
		name   string
		allocs float64
		read   func() ([]byte, error)
	}{
		{"tuner", 0, func() ([]byte, error) {
			f, err := readFrame(r, &tn.hdr, &tn.slot)
			if err != nil {
				return nil, err
			}
			defer f.Release()
			return f.Data, nil
		}},
		{"ReadFrame", 2, func() ([]byte, error) { return ReadFrame(r) }},
	} {
		got := testing.AllocsPerRun(100, func() {
			r.Reset(stream.Bytes())
			if _, err := read.read(); err != nil {
				t.Fatal(err)
			}
		})
		if got != read.allocs {
			t.Errorf("%s: %.0f allocations per frame, want %.0f", read.name, got, read.allocs)
		}
	}
}

// FuzzReadFrame: the connection's frameReader reads the frames
// ReadFrame reads and ends with the same error — io.EOF at a frame
// boundary, io.ErrUnexpectedEOF inside a frame, the limit error on an
// oversized prefix — on any bytes, whatever sizes the reads come in:
// one byte at a time, a length prefix split across reads, frames larger
// than the reader's starting buffer, the last bytes arriving with
// io.EOF. sendFrame of those frames writes WriteFrame's bytes.
func FuzzReadFrame(f *testing.F) {
	var two, big bytes.Buffer
	WriteFrame(&two, []byte("first"))
	WriteFrame(&two, []byte("second frame"))
	WriteFrame(&big, bytes.Repeat([]byte("large "), 1000))
	WriteFrame(&big, []byte("small"))
	WriteFrame(&big, bytes.Repeat([]byte("larger "), 1000))
	for _, stream := range [][]byte{
		{},                    // empty stream
		{0, 0},                // torn header
		{0, 0, 0, 9},          // header, no payload
		{0, 0, 0, 9, 'x'},     // torn payload
		{0x01, 0, 0, 1, 0, 0}, // length maxFrame+1
		two.Bytes(),           // two back-to-back frames
		big.Bytes(),           // frames above and below the starting buffer
		big.Bytes()[:7000],    // ... the first one torn
	} {
		f.Add(stream, []byte{}, false)
		f.Add(stream, []byte{1}, true)
		f.Add(stream, []byte{3, 200, 2}, false)
	}
	f.Fuzz(func(t *testing.T, stream, sizes []byte, dataErr bool) {
		source := func() io.Reader {
			var r io.Reader = &chunkReader{r: bytes.NewReader(stream), sizes: sizes}
			if dataErr {
				r = iotest.DataErrReader(r)
			}
			return r
		}
		var plain [][]byte
		var plainErr error
		for r, used := source(), 0; plainErr == nil; {
			frame, err := ReadFrame(r)
			if plainErr = err; err == nil {
				plain = append(plain, frame)
				used += 4 + len(frame)
			} else if (err == io.EOF) != (used == len(stream)) {
				t.Fatalf("ReadFrame ends with %v after %d of %d bytes", err, used, len(stream))
			}
		}
		fr := frameReader{r: source()}
		for i := 0; ; i++ {
			frame, err := fr.next()
			if err != nil {
				if i != len(plain) || err != plainErr && fmt.Sprint(err) != fmt.Sprint(plainErr) {
					t.Fatalf("frameReader ends with %v after %d frames, ReadFrame with %v after %d", err, i, plainErr, len(plain))
				}
				break
			}
			if i == len(plain) || !bytes.Equal(frame, plain[i]) {
				t.Fatalf("frame %d: frameReader %x, ReadFrame %x", i, frame, plain[i:min(i+1, len(plain))])
			}
		}

		var want, got bytes.Buffer
		for _, frame := range append(plain, stream) {
			if err := WriteFrame(&want, frame); err != nil {
				t.Fatal(err)
			}
			if err := sendFrame(&got, append(make([]byte, 4), frame...)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("sendFrame wrote %x, WriteFrame %x", got.Bytes(), want.Bytes())
		}
	})
}

// chunkReader hands its reader's bytes out in reads of sizes[0],
// sizes[1], ... in turn, round and round; a size of 0, or no sizes, is
// as much as the caller asks for.
type chunkReader struct {
	r     io.Reader
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.sizes) > 0 {
		if n := int(c.sizes[c.i%len(c.sizes)]); n > 0 && len(p) > n {
			p = p[:n]
		}
		c.i++
	}
	return c.r.Read(p)
}

// A subscriber that disconnects outright (not merely stalls) must be
// reaped without wedging the broadcast loop: the remaining subscriber
// keeps receiving.
func TestClosedSubscriberIsReaped(t *testing.T) {
	_, ns := newNetServer(t, protocol.RMatrix, 2)
	live, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	sub := live.Subscribe(16)
	awaitSubscribers(t, ns, 1)

	dead, err := net.Dial("tcp", ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	awaitSubscribers(t, ns, 2)
	dead.Close()

	// Step until the dead connection is gone: the server reads the
	// hang-up, or a write to the closed socket fails (it may absorb a
	// few writes into kernel buffers before erroring, so loop).
	deadline := time.Now().Add(30 * time.Second)
	for ns.Subscribers() > 1 {
		if time.Now().After(deadline) {
			t.Fatal("closed subscriber never reaped")
		}
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// The broadcaster is not wedged: the live tuner still gets cycles.
	before := ns.Subscribers()
	if _, err := ns.Step(); err != nil {
		t.Fatal(err)
	}
	select {
	case cb, ok := <-sub.C:
		if !ok {
			t.Fatal("live subscription closed")
		}
		if cb == nil {
			t.Fatal("nil cycle delivered")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live subscriber starved after reaping")
	}
	if ns.Subscribers() != before {
		t.Fatalf("live subscriber count changed: %d -> %d", before, ns.Subscribers())
	}
}
