// Package transport provides the asynchronous message-passing substrate used
// by every register protocol in this repository.
//
// The model (Section 2 of the paper) assumes reliable bi-directional
// channels between every pair of processes: messages are never lost,
// duplicated or corrupted, but may be delayed arbitrarily. The in-memory
// implementation (see inmem.go) reproduces exactly that, and additionally
// exposes the adversary's two powers the lower-bound constructions are built
// from — a process is up or isolated (a crash is an isolation never
// reconnected), a link is open or held (a message held and never released is
// "left in transit forever") — and delivery delay on a virtual clock.
//
// Two socket implementations of the same Node interface — TCP streams
// (tcpnet) and UDP datagrams (udpnet) — are carriers of the one socket core
// in the framed subpackage; socknet picks one by name.
package transport

import (
	"errors"
	"fmt"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// Message is a single protocol message travelling between two processes. The
// payload is an opaque byte slice; protocol packages encode and decode it with
// internal/wire.
type Message struct {
	From    types.ProcessID
	To      types.ProcessID
	Kind    string
	Payload []byte
	// Arena, when non-nil, is the refcounted buffer Payload aliases: socket
	// transports decode each inbound frame into one pooled arena, and the
	// in-memory network delivers the arena a server's ack coalescer encoded
	// into (ArenaSender); requests in memory carry none. The message carries
	// ONE reference: whoever consumes the message calls ReleaseArena when done
	// with the payload and everything decoded from it, and anything retaining
	// an aliasing view longer takes its own Arena.Ref first. See wire's
	// buffer-ownership rule 4.
	Arena *wire.Arena
}

// RetainArena takes one additional reference on the message's arena, if any:
// call it before handing a COPY of the message to an additional independent
// consumer (the demux delivering to a route).
func (m Message) RetainArena() {
	if m.Arena != nil {
		m.Arena.Ref()
	}
}

// ReleaseArena drops the message's arena reference, if any. Consumers call it
// exactly once per delivered message, after the payload (and every transient
// view decoded from it) is no longer referenced.
func (m Message) ReleaseArena() {
	if m.Arena != nil {
		m.Arena.Release()
	}
}

// Count is how many protocol messages m carries: every message of a batch
// envelope, else one. The network counters count messages this way.
func (m Message) Count() int64 {
	if wire.IsBatch(m.Payload) {
		if c, err := wire.BatchCount(m.Payload); err == nil {
			return int64(c)
		}
	}
	return 1
}

// releaseAll releases every message's reference: messages no consumer will
// ever take.
func releaseAll(msgs []Message) {
	for _, m := range msgs {
		m.ReleaseArena()
	}
}

// String renders the message for traces and test failures.
func (m Message) String() string {
	return fmt.Sprintf("%s→%s %s (%dB)", m.From, m.To, m.Kind, len(m.Payload))
}

// Node is one process's attachment to the network. Send never blocks on the
// destination: the model is asynchronous, so delivery happens in the
// background and the sender continues immediately.
type Node interface {
	// ID returns the process identity this node is bound to.
	ID() types.ProcessID
	// Send transmits a message to another process. It returns an error only
	// if the local node is closed; messages to isolated or unknown
	// destinations are silently dropped, as in the asynchronous model where
	// such messages simply never arrive.
	Send(to types.ProcessID, kind string, payload []byte) error
	// Inbox returns the stream of messages delivered to this node. The
	// channel is closed when the node is closed.
	Inbox() <-chan Message
	// Close detaches the node from the network and releases its resources.
	// Close is idempotent.
	Close() error
}

// ArenaSender is the optional half of a Node that takes a payload together
// with the pooled arena it was encoded into. Every shipped node kind has it:
// the in-memory node delivers the arena with the message, so the receiver's
// release returns the buffer to its pool (wire's rule 4); the socket carriers
// copy the payload as their Send does and release the arena at once. A node
// without it gets a plain Send and the arena is left to the garbage
// collector, which is rule 4's safe direction.
type ArenaSender interface {
	// SendArena is Send for a payload aliasing arena, consuming the caller's
	// one reference whatever happens: it travels with the message, or it is
	// released where the message provably goes nowhere.
	SendArena(to types.ProcessID, kind string, payload []byte, arena *wire.Arena) error
}

// Errors returned by transport implementations.
var (
	// ErrClosed indicates the node or network has been closed.
	ErrClosed = errors.New("transport: closed")
	// ErrAlreadyJoined indicates a process attempted to join twice.
	ErrAlreadyJoined = errors.New("transport: process already joined")
	// ErrUnknownProcess indicates an operation referenced a process that
	// never joined the network.
	ErrUnknownProcess = errors.New("transport: unknown process")
)
