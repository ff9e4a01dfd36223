// Package wire defines the protocol message vocabulary shared by every
// register implementation in this repository and a deterministic binary
// codec for it.
//
// All protocols (the fast algorithms of the paper's Figures 2 and 5, the ABD
// baselines, the max-min variant and the regular register) exchange messages
// drawn from the same small vocabulary: read/write requests from clients to
// servers, acknowledgements back, and — only for the max-min variant —
// server-to-server gossip. A single message struct with optional fields keeps
// the codec in one place and lets the TCP transport and the signature
// substrate operate on any protocol uniformly.
//
// The encoding is a hand-rolled, versioned, length-prefixed binary format
// built on encoding/binary. It is deterministic (a requirement for signing:
// the writer signs the exact bytes of the (ts, cur, prev) triple) and has no
// dependency outside the standard library.
package wire

import (
	"errors"
	"fmt"
	"slices"

	"fastread/internal/types"
)

// Op enumerates the message kinds used by the register protocols.
type Op uint8

const (
	// OpWrite is a write request from the writer to a server
	// (write, ts, value, rCounter) — Figure 2 line 5.
	OpWrite Op = iota + 1
	// OpWriteAck is a server's acknowledgement of a write — Figure 2 line 35.
	OpWriteAck
	// OpRead is a read request from a reader to a server
	// (read, ts, rCounter) — Figure 2 line 14.
	OpRead
	// OpReadAck is a server's reply to a read
	// (readack, ts, seen, rCounter) — Figure 2 line 33.
	OpReadAck
	// OpGossip is a server-to-server timestamp broadcast, used only by the
	// decentralised max-min baseline sketched in the paper's introduction.
	OpGossip
	// OpGossipAck is a server's reply to gossip, also max-min only.
	OpGossipAck
	// OpWriteBack is the second-phase message of the ABD baselines: a client
	// (reader in SWMR ABD, reader or writer in MWMR ABD) propagates a
	// timestamp/value pair to the servers before returning.
	OpWriteBack
	// OpWriteBackAck acknowledges an OpWriteBack.
	OpWriteBackAck
	// OpQuery is the first-phase timestamp query of the MWMR ABD write (the
	// writer must discover the current maximum timestamp before writing).
	OpQuery
	// OpQueryAck answers an OpQuery.
	OpQueryAck
)

// opNames maps ops to the transport-level message kind strings; the empty
// name marks an undefined op. It is an array indexed by the op, not a map:
// every send names its message's kind and every decode validates its op.
var opNames = [256]string{
	OpWrite:        "write",
	OpWriteAck:     "writeack",
	OpRead:         "read",
	OpReadAck:      "readack",
	OpGossip:       "gossip",
	OpGossipAck:    "gossipack",
	OpWriteBack:    "writeback",
	OpWriteBackAck: "writebackack",
	OpQuery:        "query",
	OpQueryAck:     "queryack",
}

// String returns the canonical lower-case name of the op.
func (o Op) String() string {
	if s := opNames[o]; s != "" {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether the op is one of the defined message kinds.
func (o Op) Valid() bool { return opNames[o] != "" }

// IsRequest reports whether the op is a client- (or gossip-) initiated
// request, as opposed to an acknowledgement.
func (o Op) IsRequest() bool {
	switch o {
	case OpWrite, OpRead, OpGossip, OpWriteBack, OpQuery:
		return true
	default:
		return false
	}
}

// AckFor returns the acknowledgement op matching a request op.
func AckFor(o Op) (Op, error) {
	switch o {
	case OpWrite:
		return OpWriteAck, nil
	case OpRead:
		return OpReadAck, nil
	case OpGossip:
		return OpGossipAck, nil
	case OpWriteBack:
		return OpWriteBackAck, nil
	case OpQuery:
		return OpQueryAck, nil
	default:
		return 0, fmt.Errorf("wire: no ack op for %v", o)
	}
}

// Message is the single protocol message structure shared by all register
// implementations. Fields that a given protocol does not use are left at
// their zero values and cost two bytes each on the wire.
type Message struct {
	// Op is the message kind.
	Op Op
	// SeenMask is the server's seen set: the clients the server replied to
	// since it last changed its timestamp (Figure 2 lines 28-30), one bit
	// per client (types.ClientMask). It is what an ack carries and what
	// decoding fills. (It sits beside Op, where it costs no padding.)
	SeenMask types.ClientMask
	// Key names the register the message belongs to. One deployment
	// multiplexes many independent registers over the same server processes;
	// every protocol message carries the key of the register it operates on,
	// and servers keep fully separate state per key. The empty key is the
	// deployment's default register, which single-register code and
	// regclient without -key use.
	Key string
	// TS is the logical timestamp carried by the message. For OpRead it is
	// the highest timestamp previously returned/observed by the reader
	// (Figure 2 line 13); for acks it is the server's current timestamp.
	TS types.Timestamp
	// Cur and Prev carry the value written at TS and at TS−1 respectively
	// (the "two tags" of Section 4).
	Cur types.Value
	// Prev is the value written immediately before Cur.
	Prev types.Value
	// Seen is encoder input only: AppendEncode ORs its members into the
	// encoded mask, and decoding never fills it. It is kept because the
	// frozen benchmark harness (cmd/benchreport) builds acks with it.
	Seen []types.ProcessID
	// RCounter is the per-reader operation counter used to match acks to the
	// read that solicited them (Figure 2 line 13); always 0 for the writer.
	RCounter int64
	// WriterSig is the writer's signature over (TS, Cur, Prev); only used by
	// the arbitrary-failure algorithm (Figure 5).
	WriterSig []byte
	// WriterRank identifies the writer in multi-writer protocols (the MWMR
	// ABD baseline); timestamps are ordered lexicographically by
	// (TS, WriterRank). Zero for single-writer protocols.
	WriterRank int32
	// Phase disambiguates protocol-internal phases when the same op is used
	// in different roles (unused by the paper's algorithms; reserved for the
	// baselines).
	Phase int32

	// keyMemo caches the most recent non-empty Key this message decoded
	// (alias mode only): almost all of a scratch message's traffic names the
	// same register back to back, so re-materialising the key string per
	// message would be the hot path's dominant allocation. Strings are
	// immutable, so sharing the memo through copies and Clone is safe;
	// Reset and DecodeInto preserve it across reuse.
	keyMemo string
}

// Kind returns the transport-level message kind string for this message.
func (m *Message) Kind() string { return m.Op.String() }

// Tagged returns the timestamp/value pair carried by the message.
func (m *Message) Tagged() types.TaggedValue {
	return types.TaggedValue{TS: m.TS, Cur: m.Cur, Prev: m.Prev}
}

// Validate performs structural sanity checks on a decoded message. It guards
// servers and clients against malformed (including maliciously crafted)
// payloads: the paper assumes a process "can detect that the message is
// incomplete, and ignores such a message".
func (m *Message) Validate() error {
	if !m.Op.Valid() {
		return fmt.Errorf("%w: bad op %d", ErrMalformed, m.Op)
	}
	if len(m.Key) > MaxKeySize {
		return fmt.Errorf("%w: key too long (%d bytes)", ErrMalformed, len(m.Key))
	}
	if m.TS < 0 {
		return fmt.Errorf("%w: negative timestamp %d", ErrMalformed, m.TS)
	}
	if m.RCounter < 0 {
		return fmt.Errorf("%w: negative rCounter %d", ErrMalformed, m.RCounter)
	}
	return nil
}

// Clone returns a deep copy of the message.
func (m *Message) Clone() *Message {
	out := *m
	out.Cur = m.Cur.Clone()
	out.Prev = m.Prev.Clone()
	out.Seen = slices.Clone(m.Seen)
	if m.WriterSig != nil {
		out.WriterSig = make([]byte, len(m.WriterSig))
		copy(out.WriterSig, m.WriterSig)
	}
	return &out
}

// Errors returned by the codec.
var (
	// ErrMalformed indicates bytes that do not decode to a valid message.
	ErrMalformed = errors.New("wire: malformed message")
	// ErrVersion indicates an unsupported format version.
	ErrVersion = errors.New("wire: unsupported format version")
)
