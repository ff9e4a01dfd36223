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
// order and the whole network is deterministic for a given seed: the clock
// only fires the next event once the previous one's entire causal cascade
// has quiesced. Delays and jitter advance virtual time; nothing sleeps.
//
// A node's consumer takes whatever is queued as one run (Queue), and on such a
// network that is always one message: Step fires one delivery and waits until
// its consumer has released it before firing the next.
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

// InMemNetwork is the goroutine/channel implementation of Network.
//
// The per-message route/deliver path is designed for heavy multi-register
// traffic: each destination's queue counts what it admits under the lock it
// already takes, and the node table is copy-on-write — so concurrent senders
// never serialise on a network-wide lock. Adversarial controls (blocks,
// crashes, holds, a virtual clock) flip the network onto a mutex-guarded
// slow path; a network that never uses them (the common benchmark and
// production shape) stays lock-free end to end. Time is virtual or absent:
// delays exist only on a virtual clock.
type InMemNetwork struct {
	// mu guards the adversarial configuration, the hold queues and
	// membership changes. The per-message fast path never takes it.
	mu      sync.Mutex
	nodes   atomic.Pointer[nodeMap]
	blocked map[link]bool
	crashed map[types.ProcessID]bool
	downed  map[types.ProcessID]bool
	held    map[link][]Message

	// clock, when non-nil, puts the network in virtual-time simulation mode
	// (see WithClock).
	clock *VirtualClock

	// slow is true whenever any adversarial feature (or closure) is active;
	// route() and holdIfNeeded() consult it before touching mu.
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

var _ Network = (*InMemNetwork)(nil)

// NewInMemNetwork builds an in-memory network. It is safe for concurrent use
// by any number of nodes.
func NewInMemNetwork(opts ...InMemOption) *InMemNetwork {
	n := &InMemNetwork{
		blocked: make(map[link]bool),
		crashed: make(map[types.ProcessID]bool),
		downed:  make(map[types.ProcessID]bool),
		rng:     rand.New(rand.NewSource(1)),
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
	n.slow.Store(n.closed ||
		len(n.blocked) > 0 ||
		len(n.crashed) > 0 ||
		len(n.downed) > 0 ||
		len(n.held) > 0 ||
		n.clock != nil)
}

// Join implements Network.
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
		// incarnation starts reachable — any crash or isolation mark against
		// the dead one is cleared; messages still queued on the old node are
		// lost with it, exactly as a real restart loses its socket buffers.
		// Its counters are not: they retire into the network's totals.
		n.retired.Add(prev.Stats())
		delete(n.crashed, id)
		delete(n.downed, id)
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

// Close implements Network.
func (n *InMemNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.updateSlowLocked()
	nodes := *n.nodes.Load()
	n.mu.Unlock()

	for _, node := range nodes {
		_ = node.Close()
	}
	return nil
}

// Block prevents delivery of any message sent from `from` to `to` until
// Unblock is called. Messages sent while the link is blocked are counted as
// dropped; in the abstract model they are simply "in transit" forever, which
// is indistinguishable to the protocols because no protocol waits for more
// than S−t servers.
func (n *InMemNetwork) Block(from, to types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[link{from, to}] = true
	n.updateSlowLocked()
}

// Unblock re-enables delivery on the link.
func (n *InMemNetwork) Unblock(from, to types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, link{from, to})
	n.updateSlowLocked()
}

// BlockPair blocks both directions between the two processes.
func (n *InMemNetwork) BlockPair(a, b types.ProcessID) {
	n.Block(a, b)
	n.Block(b, a)
}

// UnblockAll clears every blocked link.
func (n *InMemNetwork) UnblockAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[link]bool)
	n.updateSlowLocked()
}

// Crash marks a process as crashed: no message is delivered to it or from it
// anymore. Crashing is permanent for the lifetime of the process incarnation,
// matching the crash-stop model; only a NEW incarnation that closes the dead
// node and rejoins under the same identity (see Join) clears the mark, which
// is the crash-recovery model the durable servers implement.
func (n *InMemNetwork) Crash(id types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
	n.updateSlowLocked()
}

// Isolate cuts a process off the network: every message to or from it is
// dropped until Reconnect. Unlike Crash it is reversible — the process keeps
// running and keeps its state, so an Isolate/Reconnect window models an
// outage with state retained (a restart that recovers from its durable log
// is a new incarnation: the old node closed, the identity joined again —
// see Join). Like Block, isolation applies at SEND time: messages already
// routed when the window opens still deliver.
func (n *InMemNetwork) Isolate(id types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downed[id] = true
	n.updateSlowLocked()
}

// Reconnect ends an isolation window started by Isolate.
func (n *InMemNetwork) Reconnect(id types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.downed, id)
	n.updateSlowLocked()
}

// Crashed reports whether the process has been crashed via Crash.
func (n *InMemNetwork) Crashed(id types.ProcessID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
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
	s.FramesDelivered = s.DeliveredMsgs
	return s
}

// route decides the fate of a message: returns the destination node and its
// virtual delay if it should be delivered, or nil if it must be dropped.
//
// The fast path — no blocks, crashes, holds or virtual clock configured —
// reads the copy-on-write node table without taking any network-wide lock.
func (n *InMemNetwork) route(msg Message) (*inMemNode, time.Duration, bool) {
	if n.slow.Load() {
		return n.routeSlow(msg)
	}
	dst, ok := (*n.nodes.Load())[msg.To]
	if !ok {
		n.dropped.Add(1)
		return nil, 0, false
	}
	return dst, 0, true
}

// routeSlow is the mutex-guarded routing path used while any adversarial
// control is active (or the network is closed).
func (n *InMemNetwork) routeSlow(msg Message) (*inMemNode, time.Duration, bool) {
	l := link{msg.From, msg.To}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.crashed[msg.From] || n.crashed[msg.To] ||
		n.downed[msg.From] || n.downed[msg.To] || n.blocked[l] {
		n.dropped.Add(1)
		return nil, 0, false
	}
	dst, ok := (*n.nodes.Load())[msg.To]
	if !ok {
		n.dropped.Add(1)
		return nil, 0, false
	}
	delay := n.defaultDelay
	if n.jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	return dst, delay, true
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
// time. The event attaches the clock's activity token to the message before
// it reaches the mailbox: from that push until the consumer's ReleaseArena
// (tokens splitting and rejoining with RetainArena/ReleaseArena at every
// hand-off) the clock cannot fire the next event.
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
		msg.vt = c
		c.begin()
		dst.Push(msg) // a refused message ends its token
	})
}

// inMemNode is a single process attachment: an identity and its Queue. It
// owns no goroutine of its own — whoever consumes the node runs the queue
// (transport.Consume → DrainRuns), so a message crosses one queue and wakes
// at most one goroutine between Send and its handler; on a client node
// (ConsumePushed → DrainPushed) the sender delivers an idle node's run
// itself and wakes nobody.
type inMemNode struct {
	*Queue
	id  types.ProcessID
	net *InMemNetwork

	closed atomic.Bool
}

var (
	_ Node        = (*inMemNode)(nil)
	_ RunDrainer  = (*inMemNode)(nil)
	_ PushDrainer = (*inMemNode)(nil)
	_ ArenaSender = (*inMemNode)(nil)
)

// ID implements Node.
func (nd *inMemNode) ID() types.ProcessID { return nd.id }

// Send implements Node.
func (nd *inMemNode) Send(to types.ProcessID, kind string, payload []byte) error {
	return nd.send(Message{From: nd.id, To: to, Kind: kind, Payload: payload})
}

// SendArena implements ArenaSender: the arena's reference travels with the
// message to the receiver's consumer, whose release recycles the buffer.
func (nd *inMemNode) SendArena(to types.ProcessID, kind string, payload []byte, arena *wire.Arena) error {
	return nd.send(Message{From: nd.id, To: to, Kind: kind, Payload: payload, Arena: arena})
}

// send holds, routes and delivers one message. A message that goes nowhere —
// from a closed node, or dropped by routing — gives its arena reference back
// here; later drop points (a held link dropped, a closed destination, a
// network closing with the message's clock event pending) do the same.
func (nd *inMemNode) send(msg Message) error {
	if nd.closed.Load() {
		msg.ReleaseArena()
		return ErrClosed
	}
	if nd.net.holdIfNeeded(msg) {
		return nil
	}
	dst, delay, ok := nd.net.route(msg)
	if !ok {
		msg.ReleaseArena()
		return nil
	}
	nd.net.deliver(dst, msg, delay)
	return nil
}

// Close implements Node. Messages already queued still reach a consumer that
// is draining the node; without one they are released here.
func (nd *inMemNode) Close() error {
	if !nd.closed.Swap(true) {
		nd.Queue.Close()
	}
	return nil
}

// virtualClock implements the virtualClocked probe used by Coalescer so
// buffered-but-unflushed acknowledgements count as simulation activity.
func (nd *inMemNode) virtualClock() *VirtualClock { return nd.net.clock }
