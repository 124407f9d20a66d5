package netcast

import (
	"bufio"
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

// FuzzReadFrame: the framing over a *bufio.Reader or *bufio.Writer —
// header read and written inside the buffer — is the framing over the
// plain stream. On any bytes, handed out in chunks of any size and
// buffered down to bufio's 16-byte minimum so a header can straddle a
// refill, ReadFrame returns the same frames and the same error either
// way, and so does nextFrame, in the buffer or, for a frame larger than
// it, in its scratch; WriteFrame of those frames produces the same
// bytes either way, also starting with fewer than 4 bytes free in the
// writer.
func FuzzReadFrame(f *testing.F) {
	var two, big bytes.Buffer
	WriteFrame(&two, []byte("first"))
	WriteFrame(&two, []byte("second frame"))
	WriteFrame(&big, bytes.Repeat([]byte("large "), 50))
	WriteFrame(&big, []byte("small"))
	WriteFrame(&big, bytes.Repeat([]byte("larger "), 50))
	for _, stream := range [][]byte{
		{},                    // empty stream
		{0, 0},                // torn header
		{0, 0, 0, 9, 'x'},     // torn payload
		{0x01, 0, 0, 1, 0, 0}, // length maxFrame+1
		two.Bytes(),           // two back-to-back frames
		big.Bytes(),           // frames above and below the buffer size
		big.Bytes()[:400],     // ... the last one torn
	} {
		f.Add(stream, uint8(0), uint8(0), uint8(0))
		f.Add(stream, uint8(1), uint8(3), uint8(2))
	}
	f.Fuzz(func(t *testing.T, stream []byte, chunk, size, free uint8) {
		source := func() io.Reader {
			var r io.Reader = bytes.NewReader(stream)
			if chunk > 0 {
				r = &chunkReader{r: r, n: int(chunk)}
			}
			if chunk%2 == 1 {
				r = iotest.DataErrReader(r) // the last bytes arrive with io.EOF
			}
			return r
		}
		bufSize := 16 + int(size)
		plain, plainErr := readFrames(source())
		for _, way := range []string{"buffered", "in place"} {
			var frames [][]byte
			var err error
			if br := bufio.NewReaderSize(source(), bufSize); way == "buffered" {
				frames, err = readFrames(br)
			} else {
				frames, err = nextFrames(br)
			}
			if fmt.Sprint(plainErr) != fmt.Sprint(err) {
				t.Fatalf("plain reader ends with %v, %s with %v", plainErr, way, err)
			}
			if len(plain) != len(frames) {
				t.Fatalf("plain reader read %d frames, %s %d", len(plain), way, len(frames))
			}
			for i := range plain {
				if !bytes.Equal(plain[i], frames[i]) {
					t.Fatalf("frame %d: plain %x, %s %x", i, plain[i], way, frames[i])
				}
			}
		}

		// The writer starts with all but free%5 bytes of its buffer taken.
		var want, got bytes.Buffer
		bw := bufio.NewWriterSize(&got, bufSize)
		pad := make([]byte, bufSize-int(free%5))
		want.Write(pad)
		bw.Write(pad)
		for _, frame := range append(plain, stream) {
			if err := WriteFrame(&want, frame); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(bw, frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("buffered WriteFrame wrote %x, plain %x", got.Bytes(), want.Bytes())
		}
	})
}

// readFrames reads frames off r until the first error.
func readFrames(r io.Reader) ([][]byte, error) {
	var frames [][]byte
	for {
		frame, err := ReadFrame(r)
		if err != nil {
			return frames, err
		}
		frames = append(frames, frame)
	}
}

// nextFrames reads frames off br with nextFrame until the first error,
// copying each out before the next read reuses its memory.
func nextFrames(br *bufio.Reader) ([][]byte, error) {
	var frames [][]byte
	var scratch []byte
	for {
		frame, err := nextFrame(br, &scratch)
		if err != nil {
			return frames, err
		}
		frames = append(frames, bytes.Clone(frame))
	}
}

// chunkReader hands its reader's bytes out at most n at a time.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// A subscriber that disconnects outright (not merely stalls) must be
// reaped by the broadcast loop without wedging it: remaining and future
// subscribers keep receiving.
func TestClosedSubscriberIsReaped(t *testing.T) {
	_, ns := newNetServer(t, protocol.RMatrix, 2)
	dead, err := net.Dial("tcp", ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	awaitSubscribers(t, ns, 1)
	dead.Close()

	live, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	sub := live.Subscribe(16)
	awaitSubscribers(t, ns, 2)

	// Step until the dead connection is gone. A closed socket may absorb
	// a few writes into kernel buffers before erroring, so loop.
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
