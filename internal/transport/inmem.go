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

// LinkStats aggregates what happened on the network so far. It is primarily
// used by tests and experiments to assert that an adversarial schedule did
// what it was supposed to (e.g. "the read by r2 skipped block B2").
type LinkStats struct {
	Delivered int
	Dropped   int
	InTransit int
}

// InMemOption configures an in-memory network.
type InMemOption func(*InMemNetwork)

// WithDefaultDelay makes every message delivery wait the given duration,
// modelling a uniform one-way network latency. A zero delay (the default)
// delivers messages as fast as the Go scheduler allows.
func WithDefaultDelay(d time.Duration) InMemOption {
	return func(n *InMemNetwork) { n.defaultDelay = d }
}

// WithJitter adds a uniformly distributed random extra delay in [0, j) to
// every delivery. The jitter source is seeded deterministically per network
// via WithSeed.
func WithJitter(j time.Duration) InMemOption {
	return func(n *InMemNetwork) { n.jitter = j }
}

// WithSeed seeds the network's internal randomness (jitter). Networks with
// the same seed and the same schedule of sends produce the same delays.
func WithSeed(seed int64) InMemOption {
	return func(n *InMemNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithMailboxBound caps every SERVER node's mailbox at server queued
// messages. A delivery finding the mailbox full is shed (dropped-in-transit,
// counted in MailboxShed) instead of growing the queue, so the node's memory
// and queueing delay — and therefore MailboxHighWater — stay bounded under
// overload. A non-positive bound leaves servers unbounded, the default.
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
// has quiesced. Delays and jitter advance virtual time instead of sleeping.
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
// traffic: the delivery counters are atomics and the node table is
// copy-on-write — so concurrent senders never serialise on a network-wide
// lock. Adversarial controls (blocks, crashes, holds, delays, jitter, a
// virtual clock) flip the network onto a mutex-guarded slow path; a
// network that never uses them (the common benchmark and production shape)
// stays lock-free end to end.
type InMemNetwork struct {
	// mu guards the adversarial configuration, the hold queues and
	// membership changes. The per-message fast path never takes it.
	mu        sync.Mutex
	nodes     atomic.Pointer[nodeMap]
	blocked   map[link]bool
	crashed   map[types.ProcessID]bool
	downed    map[types.ProcessID]bool
	held      map[link][]Message
	linkDelay map[link]time.Duration

	// clock, when non-nil, puts the network in virtual-time simulation mode
	// (see WithClock).
	clock *VirtualClock

	// slow is true whenever any adversarial feature (or closure) is active;
	// route() and holdIfNeeded() consult it before touching mu.
	slow   atomic.Bool
	closed bool

	delivered atomic.Int64
	dropped   atomic.Int64
	inTransit atomic.Int64

	defaultDelay time.Duration
	jitter       time.Duration
	rng          *rand.Rand
	serverBound  int
	mailboxShed  atomic.Int64
	wg           sync.WaitGroup

	// Delayed deliveries are sequenced through one min-heap ordered by
	// (due time, send sequence) and drained by a single dispatcher
	// goroutine, so equal-delay messages — in particular all messages of one
	// link — deliver in SEND order. The old one-timer-per-message scheme let
	// the runtime fire near-simultaneous timers in either order, silently
	// reordering a link under load; serial clients never noticed, pipelined
	// clients starved on it. (Jitter deliberately varies due times, so it
	// still reorders — that is its job.)
	delayMu     sync.Mutex
	delayHeap   dueHeap[delayedMsg]
	delayClosed bool
	delayKick   chan struct{}
	delayStart  sync.Once
}

// delayedMsg is one in-flight delayed delivery.
type delayedMsg struct {
	dst *inMemNode
	msg Message
}

var _ Network = (*InMemNetwork)(nil)

// NewInMemNetwork builds an in-memory network. It is safe for concurrent use
// by any number of nodes.
func NewInMemNetwork(opts ...InMemOption) *InMemNetwork {
	n := &InMemNetwork{
		blocked:   make(map[link]bool),
		crashed:   make(map[types.ProcessID]bool),
		downed:    make(map[types.ProcessID]bool),
		linkDelay: make(map[link]time.Duration),
		rng:       rand.New(rand.NewSource(1)),
		delayKick: make(chan struct{}, 1),
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
		len(n.linkDelay) > 0 ||
		n.defaultDelay > 0 ||
		n.jitter > 0 ||
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
		delete(n.crashed, id)
		delete(n.downed, id)
		n.updateSlowLocked()
	}
	bound := 0
	if id.Role == types.RoleServer {
		bound = n.serverBound
	}
	node := &inMemNode{Queue: NewQueue(bound, &n.mailboxShed), id: id, net: n}
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

	// Wake the delay dispatcher (if any) so it observes the closure and
	// drains instead of sleeping out its earliest due time.
	select {
	case n.delayKick <- struct{}{}:
	default:
	}
	for _, node := range nodes {
		_ = node.Close()
	}
	n.wg.Wait()
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

// SetLinkDelay sets a one-way delivery delay for the given link, overriding
// the network default.
func (n *InMemNetwork) SetLinkDelay(from, to types.ProcessID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkDelay[link{from, to}] = d
	n.updateSlowLocked()
}

// Stats returns a snapshot of the aggregate delivery counters.
func (n *InMemNetwork) Stats() LinkStats {
	return LinkStats{
		Delivered: int(n.delivered.Load()),
		Dropped:   int(n.dropped.Load()),
		InTransit: int(n.inTransit.Load()),
	}
}

// route decides the fate of a message: returns the destination node and delay
// if it should be delivered, or nil if it must be dropped.
//
// The fast path — no blocks, crashes, holds, delays, jitter or virtual clock
// configured — reads the copy-on-write node table and bumps atomic counters
// without taking any network-wide lock.
func (n *InMemNetwork) route(msg Message) (*inMemNode, time.Duration, bool) {
	if n.slow.Load() {
		return n.routeSlow(msg)
	}
	dst, ok := (*n.nodes.Load())[msg.To]
	if !ok {
		n.dropped.Add(1)
		return nil, 0, false
	}
	n.delivered.Add(1)
	n.inTransit.Add(1)
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
	if d, ok := n.linkDelay[l]; ok {
		delay = d
	}
	if n.jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	n.delivered.Add(1)
	n.inTransit.Add(1)
	return dst, delay, true
}

// deliver hands the message to the destination mailbox, possibly after a
// delay, without ever blocking the sender. Immediate deliveries complete
// inline — no goroutine, no closure; delayed deliveries are sequenced
// through the network's delay dispatcher (see dueHeap) so equal delays
// keep send order, and tracked by the wait group so Close can drain them.
func (n *InMemNetwork) deliver(dst *inMemNode, msg Message, delay time.Duration) {
	if n.clock != nil {
		n.deliverVirtual(dst, msg, delay)
		return
	}
	if delay <= 0 {
		dst.Push(msg)
		n.inTransit.Add(-1)
		return
	}
	n.wg.Add(1)
	n.delayStart.Do(func() {
		n.wg.Add(1)
		go n.dispatchDelayed()
	})
	n.delayMu.Lock()
	if n.delayClosed {
		// The dispatcher already drained and exited (a send racing Close):
		// the message is dropped as in-transit-forever, accounted here.
		n.delayMu.Unlock()
		msg.ReleaseArena()
		n.inTransit.Add(-1)
		n.wg.Done()
		return
	}
	n.delayHeap.push(time.Now().Add(delay), delayedMsg{dst: dst, msg: msg})
	n.delayMu.Unlock()
	select {
	case n.delayKick <- struct{}{}:
	default:
	}
}

// deliverVirtual schedules the delivery as a virtual-clock event — even at
// zero delay, so that under simulation every message passes through the
// clock's single total order and at most one delivery cascade runs at a
// time. The event attaches the clock's activity token to the message before
// it reaches the mailbox: from that push until the consumer's ReleaseArena
// (tokens splitting and rejoining with RetainArena/ReleaseArena at every
// hand-off) the clock cannot fire the next event.
//
// Events left unexecuted when the simulation stops simply never run; their
// messages stay counted as in-transit, the virtual analogue of "delayed
// forever".
func (n *InMemNetwork) deliverVirtual(dst *inMemNode, msg Message, delay time.Duration) {
	c := n.clock
	c.Schedule(delay, func() {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			msg.ReleaseArena()
			n.inTransit.Add(-1)
			return
		}
		msg.vt = c
		c.begin()
		dst.Push(msg) // a refused message ends its token
		n.inTransit.Add(-1)
	})
}

// dispatchDelayed is the delay dispatcher: it sleeps until the earliest due
// delivery, then hands everything due over in (due, send-sequence) order. It
// runs only on networks that actually delay, and exits when the network
// closes (Close counts undelivered messages off the wait group).
func (n *InMemNetwork) dispatchDelayed() {
	defer n.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.delayMu.Lock()
		now := time.Now()
		for n.delayHeap.len() > 0 && !n.delayHeap.next().After(now) {
			_, d := n.delayHeap.pop()
			n.delayMu.Unlock()
			d.dst.Push(d.msg)
			n.inTransit.Add(-1)
			n.wg.Done()
			n.delayMu.Lock()
		}
		var wait time.Duration = time.Hour
		if n.delayHeap.len() > 0 {
			wait = time.Until(n.delayHeap.next())
		}
		n.delayMu.Unlock()

		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			// Drop whatever is still pending: the network is gone, the
			// messages are "in transit forever". delayClosed hands any
			// send still racing this shutdown its own cleanup.
			n.delayMu.Lock()
			pending := n.delayHeap
			n.delayHeap = dueHeap[delayedMsg]{}
			n.delayClosed = true
			n.delayMu.Unlock()
			for _, d := range pending.items {
				d.v.msg.ReleaseArena()
				n.inTransit.Add(-1)
				n.wg.Done()
			}
			return
		}

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-n.delayKick:
		}
	}
}

// inMemNode is a single process attachment: an identity and its Queue. It
// owns no goroutine of its own — whoever consumes the node runs the queue
// (transport.Consume → DrainRuns), so a message crosses one queue and wakes
// one goroutine between Send and its handler.
type inMemNode struct {
	*Queue
	id  types.ProcessID
	net *InMemNetwork

	closed atomic.Bool
}

var (
	_ Node        = (*inMemNode)(nil)
	_ RunDrainer  = (*inMemNode)(nil)
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
// network closing with the message delayed) do the same.
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

// MailboxHighWater returns the deepest any node's mailbox has ever been —
// the network-wide overload high-water mark. Mailboxes are unbounded by
// default (the asynchronous model forbids blocking a sender on a slow
// receiver), so without WithMailboxBound depth, not drops, is where
// overload shows up; with a bound, the mark stays at or under the bound and
// the overflow appears in MailboxShed instead.
func (n *InMemNetwork) MailboxHighWater() int {
	hw := 0
	for _, nd := range *n.nodes.Load() {
		if h := nd.HighWater(); h > hw {
			hw = h
		}
	}
	return hw
}

// MailboxShed returns how many deliveries bounded mailboxes have shed (always
// 0 without WithMailboxBound).
func (n *InMemNetwork) MailboxShed() int64 { return n.mailboxShed.Load() }
