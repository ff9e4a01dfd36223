package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// link identifies a directed sender→receiver channel.
type link struct {
	from types.ProcessID
	to   types.ProcessID
}

// InMemOption configures an in-memory network.
type InMemOption func(*InMemNetwork)

// WithDefaultDelay sets the virtual time every delivery takes, modelling a
// uniform one-way network latency. Time is modelled only on a virtual clock
// (WithClock); without one every delivery is immediate.
func WithDefaultDelay(d time.Duration) InMemOption {
	return func(n *InMemNetwork) { n.defaultDelay = d }
}

// WithJitter adds a uniformly distributed random extra delay in [0, j) to
// every virtual-clock delivery. The jitter source is seeded
// deterministically per network via WithSeed.
func WithJitter(j time.Duration) InMemOption {
	return func(n *InMemNetwork) { n.jitter = j }
}

// WithSeed seeds the network's jitter. Networks with the same seed and the
// same schedule of sends produce the same delays.
func WithSeed(seed int64) InMemOption {
	return func(n *InMemNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithMailboxBound caps every SERVER node's mailbox at server queued
// messages. A delivery finding the mailbox full is shed (dropped-in-transit,
// counted in Stats.ShedDrops) instead of growing the queue, so the node's
// memory and queueing delay — and therefore Stats.MailboxHighWater — stay
// bounded under overload. A non-positive bound leaves servers unbounded, the
// default.
//
// Shedding a REQUEST at a server is as safe as a lossy network: the protocols
// tolerate loss via quorum slack and the client's retry/timeout. Client
// (writer/reader) mailboxes are never bounded: shedding there drops
// ACKNOWLEDGEMENTS, which can starve an otherwise-completable quorum.
func WithMailboxBound(server int) InMemOption {
	return func(nw *InMemNetwork) { nw.serverBound = server }
}

// WithClock runs the network on a virtual clock (simulation mode). Every
// delivery — including zero-delay ones — becomes a scheduled clock event, so
// messages are processed strictly one at a time in (due time, send sequence)
// order and the whole network is deterministic for a given seed. Delays and
// jitter advance virtual time; nothing sleeps.
//
// On such a network every consumer is push-delivered, whatever it asked for
// (inMemNode.Claim): the event that pushes a message delivers it, so a
// server's handler, its run end and its coalesced acks run inside the event,
// on the clock's goroutine, and a consumer's run is always that one delivery.
// A Send only schedules, and so does SendTaking, which takes no run: no
// consumer runs inside a sender. A delivery that stays queued — a node read
// through Inbox, or one nobody claimed — makes its Step fail.
func WithClock(c *VirtualClock) InMemOption {
	return func(n *InMemNetwork) { n.clock = c }
}

// WithBatching is a no-op: every in-memory node's consumer takes its queued
// backlog as one run. It is kept for callers that still spell it.
func WithBatching() InMemOption {
	return func(*InMemNetwork) {}
}

// nodeMap is the copy-on-write process→node table. Joins copy it; routing
// reads it through an atomic pointer without locking.
type nodeMap map[types.ProcessID]*inMemNode

// InMemNetwork is the in-process network: every process joins it and gets a
// node whose queue its consumer drains.
//
// The per-message route/deliver path is designed for heavy multi-register
// traffic: each destination's queue counts what it admits under the lock it
// already takes, and the node table is copy-on-write — so concurrent senders
// never serialise on a network-wide lock. The adversary's two powers — a
// process is up or isolated (Isolate), a link is open or held (Hold) — and a
// virtual clock flip the network onto a mutex-guarded slow path; a network
// that never uses them (the common benchmark and production shape) stays
// lock-free end to end. Time is virtual or absent: delays exist only on a
// virtual clock.
type InMemNetwork struct {
	// mu guards the process and link faults, the hold queues and membership
	// changes. The per-message fast path never takes it.
	mu    sync.Mutex
	nodes atomic.Pointer[nodeMap]
	down  map[types.ProcessID]bool
	held  map[link][]Message

	// clock, when non-nil, puts the network in virtual-time simulation mode
	// (see WithClock).
	clock *VirtualClock

	// slow is true whenever a fault, a virtual clock or closure is active;
	// route() consults it before touching mu.
	slow   atomic.Bool
	closed bool

	// dropped counts messages routing dropped; retired sums the queue
	// counters of nodes a rejoin replaced (under mu), so a restart keeps
	// them.
	dropped atomic.Int64
	retired Stats

	defaultDelay time.Duration
	jitter       time.Duration
	rng          *rand.Rand
	serverBound  int
}

// NewInMemNetwork builds an in-memory network. It is safe for concurrent use
// by any number of nodes.
func NewInMemNetwork(opts ...InMemOption) *InMemNetwork {
	n := &InMemNetwork{
		down: make(map[types.ProcessID]bool),
		held: make(map[link][]Message),
		rng:  rand.New(rand.NewSource(1)),
	}
	empty := make(nodeMap)
	n.nodes.Store(&empty)
	for _, opt := range opts {
		opt(n)
	}
	n.updateSlowLocked()
	return n
}

// updateSlowLocked recomputes the slow-path flag. Callers must hold n.mu
// (or, during construction, have exclusive access).
func (n *InMemNetwork) updateSlowLocked() {
	n.slow.Store(n.closed || len(n.down) > 0 || len(n.held) > 0 || n.clock != nil)
}

// Join attaches a process to the network and returns its node. Joining a
// process whose node is still open is an error.
func (n *InMemNetwork) Join(id types.ProcessID) (Node, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("transport: invalid process id %v", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	old := *n.nodes.Load()
	if prev, ok := old[id]; ok {
		if !prev.closed.Load() {
			return nil, fmt.Errorf("%w: %s", ErrAlreadyJoined, id)
		}
		// A closed node's identity may be re-taken: a restarted process
		// rejoins under its old name (Store.RestartServer). The new
		// incarnation starts reachable — an isolation mark against the dead
		// one is cleared; messages still queued on the old node are
		// lost with it, exactly as a real restart loses its socket buffers.
		// Its counters are not: they retire into the network's totals.
		n.retired.Add(prev.Stats())
		delete(n.down, id)
		n.updateSlowLocked()
	}
	bound := 0
	if id.Role == types.RoleServer {
		bound = n.serverBound
	}
	node := &inMemNode{Queue: NewQueue(bound), id: id, net: n}
	next := make(nodeMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = node
	n.nodes.Store(&next)
	return node, nil
}

// Close shuts the network and every attached node down. Messages still held
// on a link are dropped with it.
func (n *InMemNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	held := n.held
	n.held = make(map[link][]Message)
	n.updateSlowLocked()
	nodes := *n.nodes.Load()
	n.mu.Unlock()

	for _, msgs := range held {
		n.drop(msgs...)
	}
	for _, node := range nodes {
		_ = node.Close()
	}
	return nil
}

// Isolate cuts a process off the network: every message sent to or from it
// is dropped until Reconnect. The process keeps running and keeps its state,
// so an Isolate/Reconnect window models an outage with state retained; a
// crash-stop is an isolation that is never reconnected (a restart that
// recovers from its durable log is a new incarnation: the old node closed,
// the identity joined again — see Join, which clears the mark). Isolation
// applies at SEND time: messages already routed or held when the window
// opens still deliver.
func (n *InMemNetwork) Isolate(id types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = true
	n.updateSlowLocked()
}

// Reconnect ends an isolation window started by Isolate.
func (n *InMemNetwork) Reconnect(id types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.down, id)
	n.updateSlowLocked()
}

// Stats sums every node's queue counters, past incarnations included, and
// maps them once: a queue's refusals are ShedDrops, routing's drops are
// InboundDrops, and every delivery is its own frame.
func (n *InMemNetwork) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.retired
	for _, nd := range *n.nodes.Load() {
		s.Add(nd.Stats())
	}
	s.ShedDrops, s.InboundDrops = s.InboundDrops, n.dropped.Load()
	return s
}

// route decides the fate of a message: it returns the destination node and
// the virtual delay to deliver it with, or nil once the network has taken the
// message — held on its link, or dropped with its reference released.
//
// The fast path — no isolation, hold or virtual clock configured — reads the
// copy-on-write node table without taking any network-wide lock.
func (n *InMemNetwork) route(msg Message) (*inMemNode, time.Duration) {
	if n.slow.Load() {
		return n.routeSlow(msg)
	}
	dst, ok := (*n.nodes.Load())[msg.To]
	if !ok {
		n.drop(msg)
		return nil, 0
	}
	return dst, 0
}

// routeSlow decides under one acquisition of mu, in one order: drop, then
// hold, then deliver with the virtual delay.
func (n *InMemNetwork) routeSlow(msg Message) (*inMemNode, time.Duration) {
	n.mu.Lock()
	dst := (*n.nodes.Load())[msg.To]
	if n.closed || n.down[msg.From] || n.down[msg.To] || dst == nil {
		n.mu.Unlock()
		n.drop(msg)
		return nil, 0
	}
	l := link{msg.From, msg.To}
	if q, ok := n.held[l]; ok {
		n.held[l] = append(q, msg)
		n.mu.Unlock()
		return nil, 0
	}
	delay := n.defaultDelay
	if n.jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	n.mu.Unlock()
	return dst, delay
}

// drop counts the messages the network discards — in routing, off a held
// link, at close — as the queues count them (Message.Count), and releases
// their references.
func (n *InMemNetwork) drop(msgs ...Message) {
	var c int64
	for _, m := range msgs {
		c += m.Count()
	}
	n.dropped.Add(c)
	releaseAll(msgs)
}

// deliver hands the message to the destination mailbox without ever
// blocking the sender: as a virtual-clock event after its delay when the
// network has a clock, else inline — no goroutine, no closure.
func (n *InMemNetwork) deliver(dst *inMemNode, msg Message, delay time.Duration) {
	if n.clock != nil {
		n.deliverVirtual(dst, msg, delay)
		return
	}
	dst.Push(msg)
}

// deliverVirtual schedules the delivery as a virtual-clock event — even at
// zero delay, so that under simulation every message passes through the
// clock's single total order and at most one delivery cascade runs at a
// time. The event pushes into a push-delivered queue, so the consumer's run
// happens inside it; a delivery the push leaves queued is recorded on the
// clock as that Step's error.
//
// Events left unexecuted when the simulation stops simply never run: their
// messages are the virtual analogue of "delayed forever".
func (n *InMemNetwork) deliverVirtual(dst *inMemNode, msg Message, delay time.Duration) {
	c := n.clock
	c.Schedule(delay, func() {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			msg.ReleaseArena()
			return
		}
		if _, gone := dst.offer(msg); !gone {
			c.fail(fmt.Errorf("transport: a delivery to %v stayed queued under a virtual clock: its node is read through Inbox or has no consumer", dst.id))
		}
	})
}

// inMemNode is a single process attachment: an identity and its Queue. It
// owns no goroutine of its own — whoever claims the node serves the queue
// (transport.Claim), so a message crosses one queue and wakes at most one
// goroutine between Send and its handler; on a push-delivered node the
// sender delivers an idle node's run itself and wakes nobody, and a taking
// send to an idle TakerRuns node hands its run to the sender (SendTaking).
type inMemNode struct {
	*Queue
	id  types.ProcessID
	net *InMemNetwork

	closed atomic.Bool
}

var (
	_ Node        = (*inMemNode)(nil)
	_ Claimer     = (*inMemNode)(nil)
	_ ArenaSender = (*inMemNode)(nil)
	_ RunTaker    = (*inMemNode)(nil)
)

// Claim implements Claimer. On a network with a virtual clock the consumer is
// push-delivered whatever it asked for, so the clock event that delivers a
// message runs its consumer (WithClock).
func (nd *inMemNode) Claim(deliver func(Message), runEnd func(), runs Runs) (func(), bool) {
	if nd.net.clock != nil {
		runs = PusherRuns
	}
	return nd.Queue.Claim(deliver, runEnd, runs)
}

// ID implements Node.
func (nd *inMemNode) ID() types.ProcessID { return nd.id }

// Send implements Node.
func (nd *inMemNode) Send(to types.ProcessID, kind string, payload []byte) error {
	_, err := nd.send(Message{From: nd.id, To: to, Kind: kind, Payload: payload}, false)
	return err
}

// SendArena implements ArenaSender: the arena's reference travels with the
// message to the receiver's consumer, whose release recycles the buffer.
func (nd *inMemNode) SendArena(to types.ProcessID, kind string, payload []byte, arena *wire.Arena) error {
	_, err := nd.send(Message{From: nd.id, To: to, Kind: kind, Payload: payload, Arena: arena}, false)
	return err
}

// SendTaking implements RunTaker: SendArena that takes the destination's run
// when its consumer lets takers deliver and no run is in progress.
func (nd *inMemNode) SendTaking(to types.ProcessID, kind string, payload []byte, arena *wire.Arena) (*Queue, error) {
	return nd.send(Message{From: nd.id, To: to, Kind: kind, Payload: payload, Arena: arena}, true)
}

// send routes and delivers one message, taking the destination's run if take
// is set and the destination lets it (Queue.take). A message from a closed
// node gives its arena reference back here, one routing drops gives it back
// in route; later drop points (a held link dropped, a network closing with
// messages held or a clock event pending, a closed destination) do the same.
func (nd *inMemNode) send(msg Message, take bool) (*Queue, error) {
	if nd.closed.Load() {
		msg.ReleaseArena()
		return nil, ErrClosed
	}
	dst, delay := nd.net.route(msg)
	switch {
	case dst == nil:
	case take && nd.net.clock == nil:
		return dst.take(msg), nil
	default:
		nd.net.deliver(dst, msg, delay)
	}
	return nil, nil
}

// Close implements Node. Messages already queued still reach a consumer that
// is draining the node; without one they are released here.
func (nd *inMemNode) Close() error {
	if !nd.closed.Swap(true) {
		nd.Queue.Close()
	}
	return nil
}
