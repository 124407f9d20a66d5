package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// Uplink message layout (big-endian):
//
//	magic    4 bytes  "BCU1"
//	reads    4 bytes  count
//	writes   4 bytes  count
//	per read:  obj 4 bytes, cycle 8 bytes
//	per write: obj 4 bytes, len 4 bytes, value bytes
//
// The reply is a single status byte (0 = committed) followed, on
// failure, by a 2-byte length and a UTF-8 reason.

const updateHeaderBytes = 4 + 4 + 4

// EncodeUpdateRequest serializes a client update transaction for the
// uplink into a fresh buffer.
func EncodeUpdateRequest(req protocol.UpdateRequest) []byte { return AppendUpdateRequest(nil, req) }

// AppendUpdateRequest appends req's uplink frame to dst, growing dst
// at most once.
func AppendUpdateRequest(dst []byte, req protocol.UpdateRequest) []byte {
	size := updateHeaderBytes + 12*len(req.Reads)
	for _, w := range req.Writes {
		size += 8 + len(w.Value)
	}
	dst = append(slices.Grow(dst, size), KindUpdate.magic()...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Reads)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Writes)))
	for _, r := range req.Reads {
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Obj))
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.Cycle))
	}
	for _, w := range req.Writes {
		dst = binary.BigEndian.AppendUint32(dst, uint32(w.Obj))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(w.Value)))
		dst = append(dst, w.Value...)
	}
	return dst
}

// DecodeUpdateRequest parses an uplink frame. Each written value is a
// window onto data, capped at its own length (an empty one is nil): the
// request is valid while data is, and whoever keeps a value copies it.
func DecodeUpdateRequest(data []byte) (req protocol.UpdateRequest, err error) {
	err = DecodeUpdateRequestInto(&req, data)
	return req, err
}

// DecodeUpdateRequestInto is DecodeUpdateRequest into req, reusing its
// Reads and Writes: with room enough it allocates nothing.
func DecodeUpdateRequestInto(req *protocol.UpdateRequest, data []byte) error {
	req.Reads, req.Writes = req.Reads[:0], req.Writes[:0]
	if err := KindUpdate.check(data); err != nil {
		return err
	}
	nReads := int(binary.BigEndian.Uint32(data[4:8]))
	nWrites := int(binary.BigEndian.Uint32(data[8:12]))
	off := updateHeaderBytes
	// Bound both counts by what the buffer can hold (a write is at
	// least its 8-byte prefix) before allocating.
	if err := minLen(data, int64(off), int64(nReads), 12); err != nil {
		return err
	}
	if err := minLen(data, int64(off+12*nReads), int64(nWrites), 8); err != nil {
		return err
	}
	for i := 0; i < nReads; i++ {
		req.Reads = append(req.Reads, protocol.ReadAt{
			Obj:   int(binary.BigEndian.Uint32(data[off : off+4])),
			Cycle: cmatrix.Cycle(binary.BigEndian.Uint64(data[off+4 : off+12])),
		})
		off += 12
	}
	for i := 0; i < nWrites; i++ {
		if off+8 > len(data) {
			return ErrShortBuffer
		}
		w := protocol.ObjectWrite{Obj: int(binary.BigEndian.Uint32(data[off : off+4]))}
		vlen := int(binary.BigEndian.Uint32(data[off+4 : off+8]))
		off += 8
		if vlen > len(data)-off {
			return ErrShortBuffer
		}
		if vlen > 0 {
			w.Value = data[off : off+vlen : off+vlen]
		}
		req.Writes = append(req.Writes, w)
		off += vlen
	}
	if off != len(data) {
		return fmt.Errorf("wire: %d trailing bytes in uplink frame", len(data)-off)
	}
	return nil
}

// EncodeUpdateReply serializes the server's verdict into a fresh buffer.
func EncodeUpdateReply(err error) []byte { return AppendUpdateReply(nil, err) }

// AppendUpdateReply appends the server's verdict to dst.
func AppendUpdateReply(dst []byte, err error) []byte {
	if err == nil {
		return append(dst, 0)
	}
	reason := err.Error()
	if len(reason) > 0xffff {
		reason = reason[:0xffff]
	}
	dst = binary.BigEndian.AppendUint16(append(dst, 1), uint16(len(reason)))
	return append(dst, reason...)
}

// DecodeUpdateReply parses the server's verdict: nil means committed;
// a non-nil error carries the server's reason.
func DecodeUpdateReply(data []byte) (commitErr error, wireErr error) {
	if len(data) < 1 {
		return nil, ErrShortBuffer
	}
	if data[0] == 0 {
		if len(data) != 1 {
			return nil, fmt.Errorf("wire: %d trailing bytes in OK reply", len(data)-1)
		}
		return nil, nil
	}
	if len(data) < 3 {
		return nil, ErrShortBuffer
	}
	n := int(binary.BigEndian.Uint16(data[1:3]))
	if len(data) != 3+n {
		return nil, fmt.Errorf("wire: reply length mismatch")
	}
	return fmt.Errorf("server rejected update: %s", data[3:]), nil
}
