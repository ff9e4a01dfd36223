package transport

import (
	"sync"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// KeyFunc extracts the multiplexing key from a delivered message. The
// returned bytes may ALIAS the message payload (consumers only ever hash
// them or use them for map lookups, so routing stays allocation-free); a nil
// key with ok=true is the empty key. Returning ok=false drops the message
// (e.g. an undecodable payload); the demultiplexer itself never inspects
// payloads.
type KeyFunc func(Message) (key []byte, ok bool)

// Demux multiplexes one physical transport node into many virtual nodes, one
// per register key. It is the client-side half of the multi-register store:
// a single writer (or reader) process joins the network once, and its
// per-register protocol clients each operate on a virtual node that sees
// only the messages carrying their register's key.
//
// Outbound messages pass straight through to the physical node (the payload
// already carries the key, stamped by the protocol client). Inbound messages
// are routed as the physical node's queue delivers them (the demux claims it
// push-delivered): the goroutine that pushed an acknowledgement into the idle
// node — a server executor's flush in memory, a read loop on sockets, a clock
// event — extracts the key with the KeyFunc, looks the route up and CALLS the
// engine bound to it (Sink), so an acknowledgement wakes nobody between its
// producer and the operation it completes. The demux's one goroutine, the pump, consumes only the backlog
// such a run leaves behind. There is no per-route queue, channel or
// goroutine: a route costs a table entry. Messages for keys with no active
// route are dropped, which the asynchronous model permits (they are
// indistinguishable from messages delayed forever).
//
// The node's own queue is therefore the only place a client-side backlog can
// sit, and in memory it is unbounded (the socket cores have a fixed inbox)
// for a correctness reason: a server lagging behind the quorum can flush a
// long acknowledgement backlog in one burst, and a bound forces a drop policy
// that can discard the in-flight operation's quorum-completing acks.
type Demux struct {
	node  Node
	keyOf KeyFunc

	// mu guards the route table and the closed flag: the routing read-locks
	// it for one lookup per message, route open/close write-lock it for one map
	// operation.
	mu     sync.RWMutex
	routes map[string]*demuxRoute
	closed bool

	done chan struct{}
}

// NewDemux wraps a physical node, claims it before returning and starts the
// pump. The third parameter is ignored; it is kept for callers that still
// pass a route buffer size.
func NewDemux(node Node, keyOf KeyFunc, _ int) *Demux {
	d := &Demux{
		node:   node,
		keyOf:  keyOf,
		routes: make(map[string]*demuxRoute),
		done:   make(chan struct{}),
	}
	go d.pump(Claim(node, expanding(d.route), nil, PusherRuns))
	return d
}

// route hands one message to its key's route. It runs on whichever goroutine
// delivers the node's run — a pusher's, or the pump's for a backlog — one run
// at a time. Batch envelopes are expanded first (a server's coalesced
// acknowledgement burst may span registers, so each carried message is routed
// by ITS key).
func (d *Demux) route(m Message) {
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
		// The delivered copy carries its own reference (several routes may
		// receive views of one envelope's frame); whoever ends up with the
		// message releases it.
		m.RetainArena()
		rt.deliver(m)
	}
}

// pump serves the node until it closes, then closes every route.
func (d *Demux) pump(serve func()) {
	defer close(d.done)
	serve()
	d.mu.Lock()
	d.closed = true
	routes := d.routes
	d.routes = nil
	d.mu.Unlock()
	for _, rt := range routes {
		rt.shutdown()
	}
}

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
// channel. What the demux does with a message for the key is decided by the
// route's first use:
//
//   - BindSink (protoutil.Pipeline does this at construction): the routing
//     calls the sink — the client engine — directly. This is the product
//     path.
//   - Inbox: the route grows a channel side — an unbounded Queue read
//     through its Inbox — for consumers that want to select on a channel:
//     tests and cmd/benchreport's transport.demux_rtt_us cell.
//
// Until either happens, messages wait in the route (a route opened and never
// consumed queues without bound, as it always has).
type demuxRoute struct {
	demux *Demux
	key   string

	// mu is the route guard: it orders deliveries against BindSink, Inbox and
	// close, and the routing holds it across a sink's Deliver — which is what
	// makes "closed after the last delivery" hold when a handle's Close or a
	// reader restart closes the route mid-delivery. Lock order: route guard →
	// the engine's own locks; nothing that holds an engine lock takes a
	// route guard.
	mu      sync.Mutex
	sink    Sink
	q       *Queue
	pending []Message
	closed  bool
}

var (
	_ Node        = (*demuxRoute)(nil)
	_ ArenaSender = (*demuxRoute)(nil)
	_ RunTaker    = (*demuxRoute)(nil)
)

// deliver hands one message, and its reference, to whatever consumes the
// route. Only the goroutine delivering the physical node's run calls it.
func (rt *demuxRoute) deliver(m Message) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch {
	case rt.closed:
		m.ReleaseArena()
	case rt.sink != nil:
		rt.sink.Deliver(m)
	case rt.q != nil:
		rt.q.Push(m)
	default:
		rt.pending = append(rt.pending, m)
	}
}

// BindSink makes s the route's consumer: from now on the demux calls it for
// every message carrying the route's key, on the goroutine delivering the
// physical node's run, and the route's close calls s.Closed — at once if the
// route is closed already. Messages that arrived before the bind are
// delivered first. It reports false if the route already has a consumer (a
// sink, or a reader of Inbox).
func (rt *demuxRoute) BindSink(s Sink) bool {
	rt.mu.Lock()
	if rt.sink != nil || rt.q != nil {
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
	sink, q, pending := rt.sink, rt.q, rt.pending
	rt.sink, rt.pending = nil, nil
	rt.mu.Unlock()
	releaseAll(pending)
	if q != nil {
		q.Close()
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

// SendArena implements ArenaSender over the physical node (see SendArena).
func (rt *demuxRoute) SendArena(to types.ProcessID, kind string, payload []byte, arena *wire.Arena) error {
	return SendArena(rt.demux.node, to, kind, payload, arena)
}

// SendTaking implements RunTaker over the physical node (see SendTaking).
func (rt *demuxRoute) SendTaking(to types.ProcessID, kind string, payload []byte, arena *wire.Arena) (*Queue, error) {
	return SendTaking(rt.demux.node, to, kind, payload, arena)
}

// Inbox returns this key's message stream as a channel, building the route's
// channel side on first call (see demuxRoute).
func (rt *demuxRoute) Inbox() <-chan Message {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.q == nil {
		rt.q = NewQueue(0)
		for _, m := range rt.pending {
			rt.q.Push(m)
		}
		rt.pending = nil
		if rt.closed {
			rt.q.Close()
		}
	}
	return rt.q.Inbox()
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
