package wire

import (
	"encoding/binary"
	"fmt"

	"broadcastcc/internal/protocol"
)

// Cross-shard commit frame layouts (big-endian), carried on the same
// uplink connections as BCU1 and dispatched by magic:
//
//	prepare  "BCP1": token 8 bytes, remote 1 byte (1 = the global read
//	         set extends beyond the receiving shard), then the BCU1
//	         read/write body verbatim (counts + entries, no magic).
//	decision "BCT1": token 8 bytes, commit 1 byte (1 commit / 0 abort).
//
// Replies reuse the BCU1 status-byte layout (EncodeUpdateReply).

// shotBytes is both shots' fixed part: magic, token, flag.
const shotBytes = 4 + 8 + 1

// EncodePrepare serializes shot one for one write-shard: the shard's
// projection of the transaction plus the token naming it fleet-wide.
func EncodePrepare(token uint64, req protocol.UpdateRequest, remote bool) []byte {
	return AppendPrepare(nil, token, req, remote)
}

// AppendPrepare appends shot one to dst.
func AppendPrepare(dst []byte, token uint64, req protocol.UpdateRequest, remote bool) []byte {
	var head [shotBytes]byte
	copy(head[:], KindPrepare.magic())
	binary.BigEndian.PutUint64(head[4:12], token)
	head[12] = flagByte(remote)
	return appendUpdate(dst, head[:], req)
}

// DecodePrepare parses shot one. As with DecodeUpdateRequest, the
// written values are windows onto data.
func DecodePrepare(data []byte) (token uint64, req protocol.UpdateRequest, remote bool, err error) {
	if err = decodeUpdate(&req, data, KindPrepare); err == nil {
		remote, err = getFlag(data[12])
	}
	if err != nil {
		return 0, protocol.UpdateRequest{}, false, err
	}
	return binary.BigEndian.Uint64(data[4:12]), req, remote, nil
}

// EncodeDecision serializes shot two.
func EncodeDecision(token uint64, commit bool) []byte {
	return AppendDecision(make([]byte, 0, shotBytes), token, commit)
}

// AppendDecision appends shot two to dst.
func AppendDecision(dst []byte, token uint64, commit bool) []byte {
	return append(binary.BigEndian.AppendUint64(append(dst, KindDecision.magic()...), token), flagByte(commit))
}

// flagByte and getFlag code a shot's one-byte flag: 1 set, 0 clear.
func flagByte(set bool) byte {
	if set {
		return 1
	}
	return 0
}

func getFlag(b byte) (bool, error) {
	if b > 1 {
		return false, fmt.Errorf("wire: bad flag byte %d in two-shot frame", b)
	}
	return b == 1, nil
}

// DecodeDecision parses shot two.
func DecodeDecision(data []byte) (token uint64, commit bool, err error) {
	if err := KindDecision.check(data); err != nil {
		return 0, false, err
	}
	if len(data) != shotBytes {
		return 0, false, fmt.Errorf("wire: %d trailing bytes in decision frame", len(data)-shotBytes)
	}
	if commit, err = getFlag(data[12]); err != nil {
		return 0, false, err
	}
	return binary.BigEndian.Uint64(data[4:12]), commit, nil
}
