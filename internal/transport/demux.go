package transport

import (
	"sync"

	"fastread/internal/types"
)

// KeyFunc extracts the multiplexing key from a delivered message. The
// returned bytes may ALIAS the message payload (consumers only ever hash
// them or use them for map lookups, so routing stays allocation-free); a nil
// key with ok=true is the empty key. Returning ok=false drops the message
// (e.g. an undecodable payload); the demultiplexer itself never inspects
// payloads.
type KeyFunc func(Message) (key []byte, ok bool)

// DefaultRouteBuffer is the capacity of a route's delivery channel (see
// demuxRoute.Inbox) when NewDemux is given a non-positive one. The channel is
// only the handoff between the route's forwarder and its consumer — the queue
// proper is unbounded — so the capacity merely smooths bursts; 256 covers
// several operations' worth of acknowledgements for any realistic server
// count.
const DefaultRouteBuffer = 256

// Demux multiplexes one physical transport node into many virtual nodes, one
// per register key. It is the client-side half of the multi-register store:
// a single writer (or reader) process joins the network once, and its
// per-register protocol clients each operate on a virtual node that sees
// only the messages carrying their register's key.
//
// Outbound messages pass straight through to the physical node (the payload
// already carries the key, stamped by the protocol client). Inbound messages
// are routed by the demux's one goroutine, the pump: it consumes the physical
// node (Consume), extracts the key with the KeyFunc, looks the route up and
// CALLS the engine bound to it (Sink) — there is no per-route queue, channel
// or goroutine, so a route costs a table entry and an acknowledgement wakes
// nobody between the node's queue and the operation it completes. Messages
// for keys with no active route are dropped, which the asynchronous model
// permits (they are indistinguishable from messages delayed forever).
//
// The node's own queue is therefore the only place a client-side backlog can
// sit, and in memory it is unbounded (the socket cores have a fixed inbox)
// for a correctness reason: a server lagging behind the quorum can flush a
// long acknowledgement backlog in one burst, and a bound forces a drop policy
// that can discard the in-flight operation's quorum-completing acks.
type Demux struct {
	node  Node
	keyOf KeyFunc
	buf   int

	// mu guards the route table and the closed flag: the pump read-locks it
	// for one lookup per message, route open/close write-lock it for one map
	// operation.
	mu     sync.RWMutex
	routes map[string]*demuxRoute
	closed bool

	done chan struct{}
}

// NewDemux wraps a physical node and starts the routing pump. buf is the
// capacity of a route's delivery channel, for routes read through Inbox
// (DefaultRouteBuffer if <= 0).
func NewDemux(node Node, keyOf KeyFunc, buf int) *Demux {
	if buf <= 0 {
		buf = DefaultRouteBuffer
	}
	d := &Demux{
		node:   node,
		keyOf:  keyOf,
		buf:    buf,
		routes: make(map[string]*demuxRoute),
		done:   make(chan struct{}),
	}
	go d.pump()
	return d
}

// pump delivers every message to its key's route until the physical node
// closes, then closes every route. Batch envelopes are expanded first (a
// server's coalesced acknowledgement burst may span registers, so each
// carried message is routed by ITS key).
func (d *Demux) pump() {
	defer close(d.done)
	route := func(m Message) {
		key, ok := d.keyOf(m)
		if !ok {
			return
		}
		d.mu.RLock()
		// map[string]-lookup on a byte key compiles to a zero-allocation
		// access; the string is never materialised.
		rt := d.routes[string(key)]
		d.mu.RUnlock()
		if rt != nil {
			// The delivered copy carries its own reference (several routes
			// may receive views of one envelope's frame); whoever ends up
			// with the message releases it.
			m.RetainArena()
			rt.deliver(m)
		}
	}
	Consume(d.node, expanding(route), nil)
	d.mu.Lock()
	d.closed = true
	routes := d.routes
	d.routes = nil
	d.mu.Unlock()
	for _, rt := range routes {
		rt.shutdown()
	}
}

// Node returns the underlying physical node.
func (d *Demux) Node() Node { return d.node }

// Route returns the virtual node for the given register key, creating it on
// first use. Calling Route again with the same key returns the same virtual
// node until that node is closed. After the demux (or physical node) closes,
// Route returns a virtual node that is already closed.
func (d *Demux) Route(key string) Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rt, ok := d.routes[key]; ok {
		return rt
	}
	rt := &demuxRoute{demux: d, key: key}
	if d.closed {
		rt.closed = true
		return rt
	}
	d.routes[key] = rt
	return rt
}

// Close closes the physical node; the pump then drains it and closes every
// route. It is idempotent.
func (d *Demux) Close() error {
	err := d.node.Close()
	<-d.done
	return err
}

// demuxRoute is the virtual per-key node handed to protocol clients: an entry
// in the demux's table. Opening one starts no goroutine and allocates no
// channel. What the pump does with a message for the key is decided by the
// route's first use:
//
//   - BindSink (protoutil.Pipeline does this at construction): the pump calls
//     the sink — the client engine — directly. This is the product path.
//   - Inbox: the route grows a channel side — an unbounded queue, a forwarder
//     goroutine and a delivery channel, what every route used to own — for
//     consumers that want to select on a channel: tests and cmd/benchreport's
//     transport.demux_rtt_us cell. It goes when ROADMAP item 1 moves that
//     cell onto the sink.
//
// Until either happens, messages wait in the route (a route opened and never
// consumed queues without bound, as it always has).
type demuxRoute struct {
	demux *Demux
	key   string

	// mu is the route guard: it orders deliveries against BindSink, Inbox and
	// close, and the pump holds it across a sink's Deliver — which is what
	// makes "closed after the last delivery" hold when a handle's Close or a
	// reader restart closes the route mid-delivery. Lock order: route guard →
	// the engine's own locks; nothing that holds an engine lock takes a
	// route guard.
	mu      sync.Mutex
	sink    Sink
	ch      *routeChannel
	pending []Message
	closed  bool
}

var _ Node = (*demuxRoute)(nil)

// routeChannel is the channel side of a route (see demuxRoute): an unbounded
// mailbox, so a burst is never dropped, drained by the forwarder goroutine
// into the delivery channel.
type routeChannel struct {
	box   *mailbox
	inbox chan Message
}

// forward moves messages from the queue to the delivery channel in batches,
// exactly like a node's pump; it exits — closing the channel — once the queue
// is closed and drained.
func (c *routeChannel) forward() {
	defer close(c.inbox)
	c.box.drain(func(m Message) { c.inbox <- m })
}

// close closes the queue and drains the delivery channel until the forwarder
// closes it, so the forwarder can exit even if the consumer stopped reading
// (mirrors inMemNode.Close); undelivered messages give back their references
// here.
func (c *routeChannel) close() {
	c.box.close()
	for m := range c.inbox {
		m.ReleaseArena()
	}
}

// deliver hands one message, and its reference, to whatever consumes the
// route. Pump goroutine only.
func (rt *demuxRoute) deliver(m Message) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch {
	case rt.closed:
		m.ReleaseArena()
	case rt.sink != nil:
		rt.sink.Deliver(m)
	case rt.ch != nil:
		if !rt.ch.box.push(m) {
			m.ReleaseArena()
		}
	default:
		rt.pending = append(rt.pending, m)
	}
}

// BindSink makes s the route's consumer: from now on the pump calls it for
// every message carrying the route's key, on the pump's goroutine, and the
// route's close calls s.Closed — at once if the route is closed already.
// Messages that arrived before the bind are delivered first. It reports false
// if the route already has a consumer (a sink, or a reader of Inbox).
func (rt *demuxRoute) BindSink(s Sink) bool {
	rt.mu.Lock()
	if rt.sink != nil || rt.ch != nil {
		rt.mu.Unlock()
		return false
	}
	if rt.closed {
		rt.mu.Unlock()
		s.Closed()
		return true
	}
	rt.sink = s
	for _, m := range rt.pending {
		s.Deliver(m)
	}
	rt.pending = nil
	rt.mu.Unlock()
	return true
}

// shutdown closes the route exactly once: nothing is delivered afterwards,
// and the consumer is told — the sink by Closed, a channel reader by the
// channel closing once what was queued has been received.
func (rt *demuxRoute) shutdown() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	sink, ch, pending := rt.sink, rt.ch, rt.pending
	rt.sink, rt.pending = nil, nil
	rt.mu.Unlock()
	for _, m := range pending {
		m.ReleaseArena()
	}
	if ch != nil {
		ch.close()
	}
	if sink != nil {
		sink.Closed()
	}
}

// ID returns the identity of the underlying physical node: a virtual node is
// the same process, talking about a different register.
func (rt *demuxRoute) ID() types.ProcessID { return rt.demux.node.ID() }

// Send transmits through the physical node.
func (rt *demuxRoute) Send(to types.ProcessID, kind string, payload []byte) error {
	return rt.demux.node.Send(to, kind, payload)
}

// Inbox returns this key's message stream as a channel, building the route's
// channel side on first call (see demuxRoute).
func (rt *demuxRoute) Inbox() <-chan Message {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.ch == nil {
		rt.ch = &routeChannel{box: newMailbox(), inbox: make(chan Message, rt.demux.buf)}
		for _, m := range rt.pending {
			rt.ch.box.push(m)
		}
		rt.pending = nil
		if rt.closed {
			rt.ch.box.close()
		}
		go rt.ch.forward()
	}
	return rt.ch.inbox
}

// Close detaches this key's route from the demux. The physical node and the
// other keys' routes are unaffected.
func (rt *demuxRoute) Close() error {
	d := rt.demux
	d.mu.Lock()
	if d.routes[rt.key] == rt {
		delete(d.routes, rt.key)
	}
	d.mu.Unlock()
	rt.shutdown()
	return nil
}
