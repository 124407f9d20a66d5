package wire

import (
	"encoding/binary"
	"fmt"

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
// uplink.
func EncodeUpdateRequest(req protocol.UpdateRequest) []byte {
	size := updateHeaderBytes + 12*len(req.Reads)
	for _, w := range req.Writes {
		size += 8 + len(w.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, KindUpdate.magic()...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(req.Reads)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(req.Writes)))
	for _, r := range req.Reads {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Obj))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Cycle))
	}
	for _, w := range req.Writes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(w.Obj))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(w.Value)))
		buf = append(buf, w.Value...)
	}
	return buf
}

// DecodeUpdateRequest parses an uplink frame.
func DecodeUpdateRequest(data []byte) (protocol.UpdateRequest, error) {
	var req protocol.UpdateRequest
	if err := KindUpdate.check(data); err != nil {
		return req, err
	}
	nReads := int(binary.BigEndian.Uint32(data[4:8]))
	nWrites := int(binary.BigEndian.Uint32(data[8:12]))
	// Bound both counts by what the buffer can hold (a write is at
	// least its 8-byte prefix) before allocating.
	off := updateHeaderBytes
	if err := minLen(data, int64(off), int64(nReads), 12); err != nil {
		return req, err
	}
	if err := minLen(data, int64(off+12*nReads), int64(nWrites), 8); err != nil {
		return req, err
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
			return req, ErrShortBuffer
		}
		obj := int(binary.BigEndian.Uint32(data[off : off+4]))
		vlen := int(binary.BigEndian.Uint32(data[off+4 : off+8]))
		off += 8
		if vlen > len(data)-off {
			return req, ErrShortBuffer
		}
		req.Writes = append(req.Writes, protocol.ObjectWrite{
			Obj:   obj,
			Value: append([]byte(nil), data[off:off+vlen]...),
		})
		off += vlen
	}
	if off != len(data) {
		return req, fmt.Errorf("wire: %d trailing bytes in uplink frame", len(data)-off)
	}
	return req, nil
}

// EncodeUpdateReply serializes the server's verdict.
func EncodeUpdateReply(err error) []byte {
	if err == nil {
		return []byte{0}
	}
	reason := err.Error()
	if len(reason) > 0xffff {
		reason = reason[:0xffff]
	}
	buf := make([]byte, 0, 3+len(reason))
	buf = append(buf, 1)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(reason)))
	return append(buf, reason...)
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
