package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"fastread/internal/types"
)

// formatVersion is bumped whenever the encoding changes incompatibly.
// Version 2 added the register key to every envelope; version 3 carries the
// seen set as a 4-byte client mask instead of a length and 5 bytes per
// member.
const formatVersion = 3

// Field limits protect decoders from hostile inputs (a malicious server could
// otherwise make a reader allocate gigabytes).
const (
	// MaxValueSize is the largest register value accepted on the wire.
	MaxValueSize = 1 << 20 // 1 MiB
	// MaxKeySize is the longest register key accepted on the wire.
	MaxKeySize = 1 << 10 // 1 KiB
	// MaxSigSize is the largest signature accepted on the wire.
	MaxSigSize = 1 << 12
)

// EncodedSize returns an upper bound on the number of bytes Encode /
// AppendEncode will produce for the message.
func EncodedSize(m *Message) int {
	return 1 + 1 + binary.MaxVarintLen64 + len(m.Key) + 8 + 8 + 4 + 4 +
		valueEncodedSize(m.Cur) + valueEncodedSize(m.Prev) + 4 +
		binary.MaxVarintLen64 + len(m.WriterSig)
}

// Encode serialises the message into a fresh byte slice.
//
// Layout (all integers little-endian):
//
//	byte    version
//	byte    op
//	bytes   key   (uvarint length prefix; placed early so PeekKey is cheap)
//	uint64  ts
//	int64   rCounter (as uint64)
//	int32   writerRank
//	int32   phase
//	bytes   cur   (uvarint length prefix; length 0 + marker distinguishes ⊥)
//	bytes   prev  (same)
//	uint32  seen mask (types.ClientMask: bit 0 the writer, bit i reader
//	        ri), 4 bytes whatever the seen set's size
//	bytes   writerSig (uvarint length prefix)
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, EncodedSize(m)), m)
}

// EncodeArena is Encode into a pooled arena sized by EncodedSize: the payload
// aliases the arena, whose one reference the caller owns (rule 4 of pool.go).
// On error the arena is already released.
func EncodeArena(m *Message) ([]byte, *Arena, error) {
	a := GetArena(EncodedSize(m))
	payload, err := AppendEncode(a.Bytes()[:0], m)
	if err != nil {
		a.Release()
		return nil, nil, err
	}
	return payload, a, nil
}

// AppendEncode appends the encoding of m to buf and returns the extended
// slice, growing it as needed. It is the append-style twin of Encode: callers
// that own a scratch buffer (see GetBuffer/PutBuffer) can encode without
// allocating.
func AppendEncode(buf []byte, m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(m.Cur) > MaxValueSize || len(m.Prev) > MaxValueSize {
		return nil, fmt.Errorf("%w: value too large", ErrMalformed)
	}
	seen := m.SeenMask
	for _, p := range m.Seen {
		b := types.ClientBit(p)
		if b == 0 {
			return nil, fmt.Errorf("%w: %v in seen set has no client bit", ErrMalformed, p)
		}
		seen |= b
	}
	if len(m.WriterSig) > MaxSigSize {
		return nil, fmt.Errorf("%w: signature too large", ErrMalformed)
	}

	buf = append(buf, formatVersion, byte(m.Op))
	buf = binary.AppendUvarint(buf, uint64(len(m.Key)))
	buf = append(buf, m.Key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.TS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.RCounter))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.WriterRank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Phase))
	buf = appendValue(buf, m.Cur)
	buf = appendValue(buf, m.Prev)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(seen))
	buf = binary.AppendUvarint(buf, uint64(len(m.WriterSig)))
	buf = append(buf, m.WriterSig...)
	return buf, nil
}

// MustEncode is Encode for messages constructed by this codebase, where an
// encoding error indicates a programming bug rather than bad input.
func MustEncode(m *Message) []byte {
	b, err := Encode(m)
	if err != nil {
		panic(fmt.Sprintf("wire: encode: %v", err))
	}
	return b
}

// Decode parses a message previously produced by Encode. It never panics on
// arbitrary input and bounds all allocations. The returned message owns all
// of its fields (nothing aliases data); use DecodeInto on hot paths that can
// honour the aliasing ownership discipline.
func Decode(data []byte) (*Message, error) {
	m := &Message{}
	if err := decodeMessage(m, data, false); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a message into m, overwriting every field. It is the
// reuse-oriented twin of Decode for hot paths:
//
//   - Cur, Prev and WriterSig ALIAS data — no bytes are copied. The caller
//     must treat data as immutable for as long as any decoded field is
//     referenced, and must Clone any field it retains beyond the scope of
//     handling this one message (a "retention point": storing a value into
//     server state, remembering a reader's last-observed tag, ...).
//   - Key is a fresh string (Go strings cannot alias a []byte safely); the
//     empty key — the default register — does not allocate.
//
// Combined with GetMessage/PutMessage this makes steady-state decoding of
// default-register messages allocation-free.
func DecodeInto(m *Message, data []byte) error {
	return decodeMessage(m, data, true)
}

// decodeMessage is the shared decode core. When alias is true, byte fields
// alias data; when false, every field is a fresh copy.
func decodeMessage(m *Message, data []byte, alias bool) error {
	d := decoder{buf: data, alias: alias}
	version, err := d.byte()
	if err != nil {
		return err
	}
	if version != formatVersion {
		return fmt.Errorf("%w: %d", ErrVersion, version)
	}
	opByte, err := d.byte()
	if err != nil {
		return err
	}
	keyMemo := m.keyMemo
	if !alias {
		keyMemo = ""
	}
	*m = Message{Op: Op(opByte), keyMemo: keyMemo}

	keyLen, err := d.uvarint()
	if err != nil {
		return err
	}
	if keyLen > MaxKeySize {
		return fmt.Errorf("%w: key too long (%d)", ErrMalformed, keyLen)
	}
	if keyLen > 0 {
		keyBytes, err := d.bytes(int(keyLen))
		if err != nil {
			return err
		}
		// The comparison against the memo compiles without materialising a
		// string; only a key CHANGE allocates (see Message.keyMemo).
		if alias && string(keyBytes) == m.keyMemo {
			m.Key = m.keyMemo
		} else {
			m.Key = string(keyBytes)
			if alias {
				m.keyMemo = m.Key
			}
		}
	}

	ts, err := d.uint64()
	if err != nil {
		return err
	}
	if ts > math.MaxInt64 {
		return fmt.Errorf("%w: timestamp overflow", ErrMalformed)
	}
	m.TS = types.Timestamp(ts)

	rc, err := d.uint64()
	if err != nil {
		return err
	}
	if rc > math.MaxInt64 {
		return fmt.Errorf("%w: rCounter overflow", ErrMalformed)
	}
	m.RCounter = int64(rc)

	wr, err := d.uint32()
	if err != nil {
		return err
	}
	m.WriterRank = int32(wr)
	ph, err := d.uint32()
	if err != nil {
		return err
	}
	m.Phase = int32(ph)

	if m.Cur, err = d.value(); err != nil {
		return err
	}
	if m.Prev, err = d.value(); err != nil {
		return err
	}

	seen, err := d.uint32()
	if err != nil {
		return err
	}
	m.SeenMask = types.ClientMask(seen)

	sigLen, err := d.uvarint()
	if err != nil {
		return err
	}
	if sigLen > MaxSigSize {
		return fmt.Errorf("%w: signature too large (%d)", ErrMalformed, sigLen)
	}
	if sigLen > 0 {
		sig, err := d.bytes(int(sigLen))
		if err != nil {
			return err
		}
		m.WriterSig = sig
	}

	if !d.empty() {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, d.remaining())
	}
	return m.Validate()
}

// valueEncodedSize returns the number of bytes appendValue will use.
func valueEncodedSize(v types.Value) int {
	return 1 + binary.MaxVarintLen64 + len(v)
}

// appendValue encodes a Value, preserving the distinction between ⊥ (nil) and
// an empty value.
func appendValue(buf []byte, v types.Value) []byte {
	if v.IsBottom() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

// decoder is a bounds-checked cursor over an encoded message. When alias is
// set, bytes() returns sub-slices of buf instead of copies.
type decoder struct {
	buf   []byte
	off   int
	alias bool
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }
func (d *decoder) empty() bool    { return d.remaining() == 0 }

func (d *decoder) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("%w: truncated", ErrMalformed)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uint32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated", ErrMalformed)
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) uint64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated", ErrMalformed)
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrMalformed)
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, fmt.Errorf("%w: truncated", ErrMalformed)
	}
	if d.alias {
		out := d.buf[d.off : d.off+n : d.off+n]
		d.off += n
		return out, nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+n])
	d.off += n
	return out, nil
}

func (d *decoder) value() (types.Value, error) {
	marker, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch marker {
	case 0:
		return types.Bottom(), nil
	case 1:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > MaxValueSize {
			return nil, fmt.Errorf("%w: value too large (%d)", ErrMalformed, n)
		}
		b, err := d.bytes(int(n))
		if err != nil {
			return nil, err
		}
		return types.Value(b), nil
	default:
		return nil, fmt.Errorf("%w: bad value marker %d", ErrMalformed, marker)
	}
}

// PeekKey extracts the register key from an encoded message without decoding
// the rest of the envelope.
func PeekKey(data []byte) (string, error) {
	kb, err := PeekKeyView(data)
	if err != nil {
		return "", err
	}
	return string(kb), nil
}

// PeekKeyView is PeekKey without the string materialisation: the returned
// bytes ALIAS data, which rule 1 of the ownership discipline keeps immutable
// for as long as the view could be used. The transport demultiplexer calls
// it once per delivered message — its map lookup consumes the bytes directly,
// so routing a message allocates nothing. It reads exactly the version byte,
// the op byte and the key and touches nothing else. A nil view with a nil
// error is the empty (default-register) key.
func PeekKeyView(data []byte) ([]byte, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: truncated", ErrMalformed)
	}
	if data[0] != formatVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, data[0])
	}
	d := decoder{buf: data, off: 2, alias: true}
	keyLen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if keyLen > MaxKeySize {
		return nil, fmt.Errorf("%w: key too long (%d)", ErrMalformed, keyLen)
	}
	if keyLen == 0 {
		return nil, nil
	}
	return d.bytes(int(keyLen))
}

// KeyedSignedBytes returns the canonical byte string the writer signs for the
// arbitrary-failure algorithm: the register key followed by the (ts, cur,
// prev) triple. Including the (length-prefixed) key domain-separates the
// signatures of different registers sharing one writer key pair, so a
// malicious server cannot replay a value signed for register "a" as the
// content of register "b". Both the writer (when signing) and
// readers/servers (when verifying) must use this exact encoding.
func KeyedSignedBytes(key string, ts types.Timestamp, cur, prev types.Value) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(key)+8+valueEncodedSize(cur)+valueEncodedSize(prev))
	return AppendSignedBytes(buf, key, ts, cur, prev)
}

// AppendSignedBytes appends the canonical signed byte string to buf and
// returns the extended slice. It is the append-style twin of KeyedSignedBytes
// for callers that own a scratch buffer (the verified-signature cache hashes
// these bytes on every message and must not allocate per hit).
func AppendSignedBytes(buf []byte, key string, ts types.Timestamp, cur, prev types.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ts))
	buf = appendValue(buf, cur)
	buf = appendValue(buf, prev)
	return buf
}

// SignedBytes is KeyedSignedBytes for the default register (empty key),
// retained for the single-register call sites.
func SignedBytes(ts types.Timestamp, cur, prev types.Value) []byte {
	return KeyedSignedBytes("", ts, cur, prev)
}
