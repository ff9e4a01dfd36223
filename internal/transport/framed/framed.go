// Package framed is the socket core shared by the two socket backends. The
// register protocols only ever see a node that sends and receives whole
// messages; tcpnet and udpnet are two carriers of the same frame, so
// everything that does not depend on how the frame travels lives here once:
// the node configuration and its address resolution, the frame body codec
// (frame.go), the inbound path from a decoded frame into the node's
// transport.Queue, the counters the queue cannot keep, the closed flag and
// its errors, and the loopback test cluster. A carrier embeds a Core and adds
// only what its socket type needs: tcpnet the lazy dial, the per-peer batch
// writer and the restart eviction; udpnet the sequence numbers, dedup
// windows, chunking and batched syscalls.
//
// Core is a concrete type: no interface sits between a carrier's read loop
// and the consumer's queue, which is the same transport.Queue an in-memory
// node holds.
package framed

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Config configures one socket-attached process, on either carrier.
type Config struct {
	// Self is the identity of this process.
	Self types.ProcessID
	// ListenAddr is the address to bind; when empty, the address book entry
	// for Self is used.
	ListenAddr string
	// Book maps every peer (and usually Self) to its address.
	Book transport.AddressBook
	// Resolve, when non-nil, is consulted for destinations the Book does not
	// cover. It lets a deployment whose processes listen on ephemeral ports
	// (":0") share a live address table that fills in as processes come up:
	// the public fastread socket transports use it to run whole deployments
	// on loopback without pre-assigning ports. Resolve must be safe for
	// concurrent use.
	Resolve func(types.ProcessID) (string, bool)
}

// Errors returned by the socket transports.
var (
	// ErrNoAddress indicates a process without an address book entry.
	ErrNoAddress = errors.New("framed: no address for process")
	// ErrClosed indicates the node has been closed.
	ErrClosed = fmt.Errorf("framed: node closed: %w", transport.ErrClosed)
)

// BindAddr returns the address the configured process binds: ListenAddr, or
// else its own book entry.
func (c Config) BindAddr() (string, error) {
	if !c.Self.Valid() {
		return "", fmt.Errorf("framed: invalid self identity %v", c.Self)
	}
	if c.ListenAddr != "" {
		return c.ListenAddr, nil
	}
	if addr := c.Book[c.Self]; addr != "" {
		return addr, nil
	}
	return "", fmt.Errorf("%w: %v (set ListenAddr or add a book entry)", ErrNoAddress, c.Self)
}

// InboxLen bounds the messages delivered but not yet consumed: deep enough to
// absorb a pipelined burst from every peer of a deployment between two
// consumer wakeups. A consumer that falls further behind loses messages
// (counted), which the protocols tolerate: they never wait for more than S−t
// replies.
const InboxLen = 1024

// Core is the carrier-independent half of a socket node. Carriers embed it,
// which gives their Node the ID and Stats methods and the inbound
// transport.Queue's Inbox, DrainRuns and DrainPushed; the remaining methods
// are the carrier's side of the contract.
//
// Inbound messages wait in the node's one Queue, bounded at InboxLen, which
// transport.Consume drains in runs. A read loop admits a decoded frame's
// messages under one lock (Deliver), so a run always ends on a frame
// boundary: a server's ack coalescer and commit group see every request a
// frame carried, never part of it. On a client node (consumed with
// transport.ConsumePushed) the read loop whose frame finds the node idle
// delivers that run into the client engine itself, and leaves whatever
// other read loops admitted meanwhile to the node's consumer, so it is back
// reading its socket after one run.
type Core struct {
	*transport.Queue
	cfg    Config
	closed atomic.Bool

	// The queue counts what it admits and refuses; these are what only a
	// socket sees.
	frames, sendDrops, dedupDrops atomic.Int64
}

var (
	_ transport.RunDrainer  = (*Core)(nil)
	_ transport.PushDrainer = (*Core)(nil)
)

// NewCore builds the core of one node. The book is cloned: it is read without
// a lock for the node's lifetime.
func NewCore(cfg Config) *Core {
	cfg.Book = cfg.Book.Clone()
	return &Core{Queue: transport.NewQueue(InboxLen), cfg: cfg}
}

// ID implements transport.Node.
func (c *Core) ID() types.ProcessID { return c.cfg.Self }

// Stats returns a snapshot of the node's counters: its queue's (messages
// admitted, refused at the InboxLen bound as InboundDrops, and its high-water
// mark) plus frames, send drops and dedup drops. It stays readable after
// Close.
func (c *Core) Stats() transport.Stats {
	s := c.Queue.Stats()
	s.FramesDelivered = c.frames.Load()
	s.SendDrops = c.sendDrops.Load()
	s.DedupDrops = c.dedupDrops.Load()
	return s
}

// AddrOf returns a destination's address: its book entry, or else whatever
// Resolve knows.
func (c *Core) AddrOf(to types.ProcessID) (string, error) {
	addr, ok := c.cfg.Book[to]
	if !ok && c.cfg.Resolve != nil {
		addr, ok = c.cfg.Resolve(to)
	}
	if !ok {
		return "", fmt.Errorf("%w: %v", ErrNoAddress, to)
	}
	return addr, nil
}

// Closed reports whether Shut has been called. The carrier closes the Queue
// last, once every goroutine that could still call Deliver has exited.
func (c *Core) Closed() bool { return c.closed.Load() }

// Shut marks the node closed and reports whether this call did it, so a
// carrier's Close runs its teardown exactly once.
func (c *Core) Shut() bool { return c.closed.CompareAndSwap(false, true) }

// CountFrame records one frame or datagram read off the socket.
func (c *Core) CountFrame() { c.frames.Add(1) }

// CountSendDrop records outbound messages that will never leave.
func (c *Core) CountSendDrop(msgs int) { c.sendDrops.Add(int64(msgs)) }

// CountDedupDrop records one datagram rejected by an at-most-once window.
func (c *Core) CountDedupDrop() { c.dedupDrops.Add(1) }

// Deliver hands one decoded frame to the consumer and reports whether the
// node is still open. It consumes the caller's reference to arena, the pooled
// buffer payload aliases (wire's ownership rule 4). A batch frame — a TCP
// flusher's or an executor coalescer's output — is expanded here
// (Queue.PushExpanded), so consumers see the per-message stream they always
// did; any other frame passes its reference on to the one delivered message.
// A full queue refuses what does not fit, counts it and gives its reference
// back: the protocols tolerate the loss because they never wait for more than
// S−t replies, and InboundDrops lets operators see it.
func (c *Core) Deliver(from types.ProcessID, kind string, payload []byte, arena *wire.Arena) bool {
	if c.closed.Load() {
		arena.Release()
		return false
	}
	m := transport.Message{From: from, To: c.cfg.Self, Kind: kind, Payload: payload, Arena: arena}
	if kind == wire.BatchKind && wire.IsBatch(payload) {
		c.PushExpanded(m)
	} else {
		c.Push(m)
	}
	return true
}

// LocalCluster starts one node per identity, all bound to loopback on
// ephemeral ports, and returns them with the shared address book. bind opens
// one socket on the given address and reports where it landed; every socket
// is bound before the first node is wrapped, so each node starts with the
// complete book. It is a convenience for tests, benchmarks and examples.
func LocalCluster[S io.Closer, N any](ids []types.ProcessID, bind func(addr string) (S, string, error), wrap func(Config, S) N) (map[types.ProcessID]N, transport.AddressBook, error) {
	socks := make(map[types.ProcessID]S, len(ids))
	book := make(transport.AddressBook, len(ids))
	for _, id := range ids {
		sock, addr, err := bind("127.0.0.1:0")
		if err != nil {
			for _, prev := range socks {
				_ = prev.Close()
			}
			return nil, nil, err
		}
		socks[id] = sock
		book[id] = addr
	}
	nodes := make(map[types.ProcessID]N, len(ids))
	for _, id := range ids {
		nodes[id] = wrap(Config{Self: id, Book: book}, socks[id])
	}
	return nodes, book, nil
}
