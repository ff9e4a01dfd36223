// Package framed is the socket core shared by the two socket backends. The
// register protocols only ever see a node that sends and receives whole
// messages; tcpnet and udpnet are two carriers of the same frame, so
// everything that does not depend on how the frame travels lives here once:
// the node configuration and its address resolution, the frame body codec
// (frame.go), the inbound path from a decoded frame to the consumer, the
// delivery and drop counters, the closed flag and its errors, and the
// loopback test cluster. A carrier embeds a Core and adds only what its
// socket type needs: tcpnet the lazy dial, the per-peer batch writer and the
// restart eviction; udpnet the sequence numbers, dedup windows, chunking and
// batched syscalls.
//
// Core is a concrete type: no interface sits between a carrier's read loop
// and the consumer's queue.
package framed

import (
	"errors"
	"fmt"
	"io"
	"sync"
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

// Stats counts what happened on one socket node so far, mirroring
// transport.LinkStats for the socket transports. Drops that would otherwise
// be invisible to operators — a full inbound queue discarding a decoded
// message, a send to an unreachable or broken peer — are first-class counters
// here; cmd/regserver logs them on shutdown and Store.Stats sums them.
type Stats struct {
	// Delivered counts protocol messages decoded and handed to the consumer.
	// A batch frame contributes one count per message it carries.
	Delivered int64
	// Frames counts wire frames (TCP) or datagrams (UDP) read off the
	// socket. Under pipelined load many messages share one frame, so Frames
	// ≪ Delivered; frames per completed operation, summed over a
	// deployment's nodes, is the batching efficiency.
	Frames int64
	// DroppedInbound counts messages discarded because the inbound queue
	// was full (1 024 messages waiting for the consumer).
	DroppedInbound int64
	// DroppedSend counts outbound messages discarded before leaving: the
	// destination was unknown or unreachable, the bounded outbound queue was
	// full, the payload was oversized, or the write failed.
	DroppedSend int64
	// DedupDrops counts inbound datagrams discarded by the UDP carrier's
	// per-sender at-most-once windows (always 0 on TCP).
	DedupDrops int64
}

// Add accumulates another node's counters into s.
func (s *Stats) Add(o Stats) {
	s.Delivered += o.Delivered
	s.Frames += o.Frames
	s.DroppedInbound += o.DroppedInbound
	s.DroppedSend += o.DroppedSend
	s.DedupDrops += o.DedupDrops
}

// inboxLen bounds the messages delivered but not yet consumed: deep enough to
// absorb a pipelined burst from every peer of a deployment between two
// consumer wakeups. A consumer that falls further behind loses messages
// (counted), which the protocols tolerate: they never wait for more than S−t
// replies.
const inboxLen = 1024

// Core is the carrier-independent half of a socket node. Carriers embed it,
// which gives their Node the ID, Inbox, DrainRuns and Stats methods; the
// remaining methods are the carrier's side of the contract.
//
// Inbound messages wait in one queue that transport.Consume drains in runs
// (DrainRuns). A read loop appends a decoded frame's messages under one lock,
// so a run always ends on a frame boundary: a server's ack coalescer and
// commit group see every request a frame carried, never part of it. The
// channel of the Node interface exists only behind Inbox, for consumers that
// select on it (tests, the layer benchmarks); the first of Inbox and
// DrainRuns decides the node's consumer style for its lifetime.
type Core struct {
	cfg    Config
	closed atomic.Bool

	// mu guards the queue and the consumer style; cond wakes the consumer.
	mu   sync.Mutex
	cond sync.Cond
	// queue holds delivered messages until the consumer takes them.
	queue []transport.Message
	// draining is set once DrainRuns claims the node.
	draining bool
	// box is the channel side, nil until the first Inbox call; from then on
	// Deliver sends into it instead of queueing.
	box chan transport.Message
	// shut is set by CloseInbox: nothing is admitted afterwards, and the
	// consumer returns once the queue is empty.
	shut bool

	delivered      atomic.Int64
	frames         atomic.Int64
	droppedInbound atomic.Int64
	droppedSend    atomic.Int64
	dedupDrops     atomic.Int64
}

var _ transport.RunDrainer = (*Core)(nil)

// NewCore builds the core of one node. The book is cloned: it is read without
// a lock for the node's lifetime.
func NewCore(cfg Config) *Core {
	cfg.Book = cfg.Book.Clone()
	c := &Core{cfg: cfg}
	c.cond.L = &c.mu
	return c
}

// ID implements transport.Node.
func (c *Core) ID() types.ProcessID { return c.cfg.Self }

// Inbox implements transport.Node: the first call builds the delivery channel
// and moves whatever is queued into it. A node already claimed by DrainRuns
// yields a closed channel — there is nothing left for a second consumer.
func (c *Core) Inbox() <-chan transport.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		closed := make(chan transport.Message)
		close(closed)
		return closed
	}
	if c.box == nil {
		c.box = make(chan transport.Message, inboxLen)
		for _, m := range c.queue {
			c.box <- m // the queue is bounded by inboxLen too
		}
		c.queue = nil
		if c.shut {
			close(c.box)
		}
	}
	return c.box
}

// DrainRuns implements transport.RunDrainer: the caller becomes the node's
// consumer and takes the whole queue at each wake-up, so a run is every
// frame the read loops had delivered by then — one lock per run, not one
// channel receive per message.
func (c *Core) DrainRuns(deliver func(transport.Message), runEnd func()) bool {
	c.mu.Lock()
	if c.box != nil {
		c.mu.Unlock()
		return false
	}
	c.draining = true
	var spare []transport.Message
	for {
		for len(c.queue) == 0 && !c.shut {
			c.cond.Wait()
		}
		if len(c.queue) == 0 {
			c.mu.Unlock()
			return true
		}
		run := c.queue
		c.queue = spare[:0]
		c.mu.Unlock()
		for i := range run {
			deliver(run[i])
			run[i] = transport.Message{}
		}
		runEnd()
		spare = run
		c.mu.Lock()
	}
}

// Stats returns a snapshot of the node's delivery and drop counters; it
// stays readable after Close.
func (c *Core) Stats() Stats {
	return Stats{
		Delivered:      c.delivered.Load(),
		Frames:         c.frames.Load(),
		DroppedInbound: c.droppedInbound.Load(),
		DroppedSend:    c.droppedSend.Load(),
		DedupDrops:     c.dedupDrops.Load(),
	}
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

// Closed reports whether Shut has been called.
func (c *Core) Closed() bool { return c.closed.Load() }

// Shut marks the node closed and reports whether this call did it, so a
// carrier's Close runs its teardown exactly once.
func (c *Core) Shut() bool { return c.closed.CompareAndSwap(false, true) }

// CloseInbox ends delivery: the consumer returns once it has taken what is
// already queued, and the inbox channel, if any, is closed. The carrier calls
// it last, once every goroutine that could still call Deliver has exited.
func (c *Core) CloseInbox() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shut {
		return
	}
	c.shut = true
	if c.box != nil {
		close(c.box)
	}
	c.cond.Broadcast()
}

// CountFrame records one frame or datagram read off the socket.
func (c *Core) CountFrame() { c.frames.Add(1) }

// CountSendDrop records outbound messages that will never leave.
func (c *Core) CountSendDrop(msgs int) { c.droppedSend.Add(int64(msgs)) }

// CountDedupDrop records one datagram rejected by an at-most-once window.
func (c *Core) CountDedupDrop() { c.dedupDrops.Add(1) }

// Deliver hands one decoded frame to the consumer and reports whether the
// node is still open. It consumes the caller's reference to arena, the pooled
// buffer payload aliases (wire's ownership rule 4). A batch frame — a TCP
// flusher's or an executor coalescer's output — is expanded here, so
// consumers see the per-message stream they always did: every sub-payload
// aliases the frame's arena with one reference of its own, and the caller's
// reference drops once expansion is done. Any other frame passes its
// reference on to the one delivered message. The whole frame is admitted
// under one lock, so a consumer's run takes all of it or none of it.
func (c *Core) Deliver(from types.ProcessID, kind string, payload []byte, arena *wire.Arena) bool {
	if c.closed.Load() {
		arena.Release()
		return false
	}
	c.mu.Lock()
	if kind == wire.BatchKind && wire.IsBatch(payload) {
		_ = wire.ForEachInBatch(payload, func(sub []byte) error {
			arena.Ref()
			c.admit(transport.Message{From: from, To: c.cfg.Self, Kind: kind, Payload: sub, Arena: arena})
			return nil
		})
		arena.Release()
	} else {
		c.admit(transport.Message{From: from, To: c.cfg.Self, Kind: kind, Payload: payload, Arena: arena})
	}
	if c.box == nil {
		c.cond.Signal()
	}
	c.mu.Unlock()
	return true
}

// admit queues one message — or, once Inbox was called, sends it into the
// channel — without blocking, counting it either way; c.mu is held. A full
// queue drops the message and gives its arena reference back: the protocols
// tolerate the loss because they never wait for more than S−t replies, and
// the count lets operators see it.
func (c *Core) admit(msg transport.Message) {
	switch {
	case c.shut:
	case c.box != nil:
		select {
		case c.box <- msg:
			c.delivered.Add(1)
			return
		default:
		}
	case len(c.queue) < inboxLen:
		c.queue = append(c.queue, msg)
		c.delivered.Add(1)
		return
	}
	msg.ReleaseArena()
	c.droppedInbound.Add(1)
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
