package framed

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// The frame body is what both carriers put on the wire after their own
// prefix — TCP a uint32 body length (a stream needs delimiting), UDP a uint64
// sequence number (a datagram delimits itself but may be duplicated):
//
//	byte   sender role
//	uint32 sender index
//	uint16 kind length, then the kind
//	uint32 payload length, then the payload
//
// All integers are big-endian and the layout has no redundancy: a body that
// parses re-encodes to the same bytes.

// HeaderOverhead is the byte length of a body's header (everything before
// the payload) apart from the kind string itself.
const HeaderOverhead = 1 + 4 + 2 + 4

// AppendHeader appends a frame body's header, announcing a payload of
// payloadLen bytes that the caller appends (or already holds in place).
func AppendHeader(buf []byte, from types.ProcessID, kind string, payloadLen int) []byte {
	buf = append(buf, byte(from.Role))
	buf = binary.BigEndian.AppendUint32(buf, uint32(from.Index))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(kind)))
	buf = append(buf, kind...)
	return binary.BigEndian.AppendUint32(buf, uint32(payloadLen))
}

// AppendBody appends one complete frame body.
func AppendBody(buf []byte, from types.ProcessID, kind string, payload []byte) []byte {
	return append(AppendHeader(buf, from, kind, len(payload)), payload...)
}

// ParseBody decodes one frame body. The returned payload ALIASES body; every
// view is bounds-checked against the body (FuzzFrameBody holds the parser to
// "never panic, views in bounds, byte-exact re-encode" on arbitrary input).
func ParseBody(body []byte) (from types.ProcessID, kind string, payload []byte, err error) {
	if len(body) < HeaderOverhead {
		return types.ProcessID{}, "", nil, errors.New("framed: truncated frame")
	}
	from = types.ProcessID{Role: types.Role(body[0]), Index: int(binary.BigEndian.Uint32(body[1:5]))}
	if !from.Valid() {
		return types.ProcessID{}, "", nil, fmt.Errorf("framed: invalid sender %v", from)
	}
	kindLen := int(binary.BigEndian.Uint16(body[5:7]))
	off := 7 + kindLen
	if off+4 > len(body) {
		return types.ProcessID{}, "", nil, errors.New("framed: truncated kind")
	}
	// Nearly every frame under load is a coalesced batch; comparing against
	// the constant first avoids materialising a kind string per frame (the
	// comparison itself does not allocate).
	if kindBytes := body[7:off]; string(kindBytes) == wire.BatchKind {
		kind = wire.BatchKind
	} else {
		kind = string(kindBytes)
	}
	payloadLen := binary.BigEndian.Uint32(body[off : off+4])
	off += 4
	if uint64(payloadLen) != uint64(len(body)-off) {
		return types.ProcessID{}, "", nil, errors.New("framed: inconsistent payload length")
	}
	return from, kind, body[off:], nil
}
