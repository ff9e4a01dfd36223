package transport

import (
	"sync"

	"fastread/internal/wire"
)

// maxRetainedBatch bounds the capacity of the run buffer a consumer recycles
// between runs. A burst can grow a run arbitrarily; once processed, a buffer
// larger than this is dropped so the burst's memory is returned to the
// allocator instead of being pinned for the consumer's lifetime.
const maxRetainedBatch = 1024

// Queue is a node's one inbound queue: a multi-producer FIFO of messages that
// one consumer takes off in runs. Every node kind holds one — the in-memory
// node, the socket core (framed.Core), whose read loops admit a frame at a
// time, and a demux route read through Inbox — so the bound-and-drop rule,
// the consumer-style rule and the close-and-release rule below are written
// once, and so is the counting: the queue that admits or refuses a message
// counts it (Stats).
//
// The asynchronous model requires that a sender never blocks on a slow
// receiver (a correct process keeps taking steps regardless of what other
// processes do). A fixed-capacity channel cannot provide that, so producers
// append under a mutex and never wait.
//
// A queue has one consumer for its lifetime, chosen by whichever of
// DrainRuns, DrainPushed and Inbox comes first: DrainRuns runs the queue on
// the caller's goroutine (transport.Consume, a server's executor), DrainPushed
// does the same and also lets producers deliver (transport.ConsumePushed, the
// client side), Inbox starts a pump goroutine that feeds a channel, for code
// that selects on one (tests, the layer benchmarks).
//
// Push delivery: on a queue claimed by DrainPushed, the goroutine whose push
// finds no run in progress takes the queue as one run and delivers it itself,
// so an acknowledgement reaches the client engine on the goroutine that
// produced it — a server executor's flush, a socket read loop — and the
// consumer goroutine sleeps. A pusher that finds a run in progress only
// appends and returns: senders never block. A pusher delivers at most one
// run; whatever arrived meanwhile is handed to the consumer goroutine, which
// drains until the queue is empty, so no producer is kept from its own work
// (a read loop from its socket) by other producers' traffic. One flag,
// running, held by a pusher or the consumer, keeps deliveries sequential and
// in FIFO order.
type Queue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []Message
	closed bool

	// spare is the previous run's cleared backing array, which the next run's
	// queue takes over: a steady state ping-pongs between two arrays and
	// allocates nothing, and a burst's oversized array is dropped
	// (maxRetainedBatch).
	spare []Message

	// running is set while a run is being delivered, by the consumer or by a
	// pusher; deliver and runEnd are DrainPushed's, nil unless pushers
	// deliver.
	running bool
	deliver func(Message)
	runEnd  func()

	// hw is the high-water mark of queued-but-undrained messages. Overload
	// on an unbounded queue is otherwise silent: the queue grows, nothing
	// drops, latency just disappears into it. The mark is the cheapest
	// honest signal (one comparison per push) and is surfaced through
	// Store.Stats as MailboxHighWater. admits and refusals count the
	// messages admitted and those the bound refused.
	hw               int
	admits, refusals int64

	// bound, when positive, caps the queue depth: a push that would exceed
	// it is refused and counted instead of growing the queue. The "senders
	// never block" rule is preserved — an over-bound push returns
	// immediately; the message is simply lost, exactly as a lossy network
	// would lose it, and the protocols already tolerate loss via quorum
	// slack. Zero means unbounded.
	bound int

	// drained is set once DrainRuns or DrainPushed claims the queue; inbox is
	// the channel side, nil until the first Inbox call.
	drained bool
	inbox   chan Message
}

// NewQueue returns an empty, open queue that refuses, and counts, pushes
// beyond bound queued messages. A non-positive bound is unbounded.
func NewQueue(bound int) *Queue {
	q := &Queue{bound: bound}
	q.cond.L = &q.mu
	return q
}

// Push appends a message, which brings its one reference (arena and, under a
// virtual clock, activity token) with it. It reports false, having released
// that reference, when the queue is closed, or bounded and full (the refusal
// is counted).
func (q *Queue) Push(m Message) bool {
	q.mu.Lock()
	if !q.admit(m) {
		q.mu.Unlock()
		m.ReleaseArena()
		return false
	}
	q.admitted()
	return true
}

// PushExpanded admits every message a batch envelope carries under one lock,
// so a run takes all of the frame or none of it, and reports how many were
// admitted. Every admitted sub-message aliases the frame's arena with one
// reference of its own; the frame's own reference is released.
func (q *Queue) PushExpanded(frame Message) int {
	admitted := 0
	q.mu.Lock()
	_ = wire.ForEachInBatch(frame.Payload, func(sub []byte) error {
		m := frame
		m.Payload = sub
		if q.admit(m) {
			m.RetainArena()
			admitted++
		}
		return nil
	})
	if admitted > 0 {
		q.admitted()
	} else {
		q.mu.Unlock()
	}
	frame.ReleaseArena()
	return admitted
}

// admitted follows a push that queued something; q.mu is held, and released
// on return. With a run in progress nobody is woken: the run's owner hands on
// what it leaves behind. Otherwise the pusher delivers one run itself on a
// push-delivered queue, and wakes the consumer on any other.
func (q *Queue) admitted() {
	switch {
	case q.running:
	case q.deliver != nil:
		q.run(q.deliver, q.runEnd)
		if len(q.items) > 0 || q.closed {
			// A backlog (or the close) is the consumer's.
			q.cond.Signal()
		}
	default:
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// admit appends and counts m unless the queue is closed or full (a full
// queue counts the refusal); q.mu is held.
func (q *Queue) admit(m Message) bool {
	if q.closed {
		return false
	}
	if q.bound > 0 && len(q.items) >= q.bound {
		q.refusals++
		return false
	}
	q.items = append(q.items, m)
	q.admits++
	q.hw = max(q.hw, len(q.items))
	return true
}

// DrainRuns implements RunDrainer: the caller becomes the queue's consumer. It
// reports false, having delivered nothing, when Inbox claimed the queue first.
func (q *Queue) DrainRuns(deliver func(Message), runEnd func()) bool {
	return q.claim(deliver, runEnd, false)
}

// DrainPushed implements PushDrainer: it is DrainRuns, except that from now on
// a push that finds no run in progress delivers one run on the pushing
// goroutine (see Queue), so deliver and runEnd must never block. It reports
// false, having delivered nothing, when Inbox claimed the queue first.
func (q *Queue) DrainPushed(deliver func(Message), runEnd func()) bool {
	return q.claim(deliver, runEnd, true)
}

// claim makes the caller the queue's consumer, with pushers delivering too if
// push is set, unless Inbox claimed it first.
func (q *Queue) claim(deliver func(Message), runEnd func(), push bool) bool {
	q.mu.Lock()
	if q.inbox != nil {
		q.mu.Unlock()
		return false
	}
	q.drained = true
	if push {
		q.deliver, q.runEnd = deliver, runEnd
	}
	q.drain(deliver, runEnd)
	return true
}

// drain is the consumer loop; q.mu is held on entry and released on return.
// It takes the whole queue at each wake-up — a run is everything queued by
// then, one lock per run instead of one per message — and delivers it, until
// the queue is closed and empty and no pusher is still delivering.
func (q *Queue) drain(deliver func(Message), runEnd func()) {
	for {
		for q.running || (len(q.items) == 0 && !q.closed) {
			q.cond.Wait()
		}
		if len(q.items) == 0 {
			q.mu.Unlock()
			return
		}
		q.run(deliver, runEnd)
	}
}

// run delivers everything queued as one run, in FIFO order, then calls
// runEnd. q.mu is held on entry and on return, and released in between; the
// running flag keeps every other delivery out meanwhile. The run's array,
// cleared so it pins no payload, becomes the spare.
func (q *Queue) run(deliver func(Message), runEnd func()) {
	run := q.items
	q.items, q.spare = q.spare[:0], nil
	q.running = true
	q.mu.Unlock()
	for i := range run {
		deliver(run[i])
		run[i] = Message{}
	}
	runEnd()
	q.mu.Lock()
	q.running = false
	if cap(run) <= maxRetainedBatch {
		q.spare = run
	}
}

// Inbox returns the queue's messages as a channel. The first call claims the
// queue for a pump goroutine that feeds the channel and closes it once the
// queue is closed and drained; a queue DrainRuns or DrainPushed claimed first
// yields a closed channel.
func (q *Queue) Inbox() <-chan Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inbox == nil {
		q.inbox = make(chan Message)
		if q.drained {
			close(q.inbox)
		} else {
			go q.pump(q.inbox)
		}
	}
	return q.inbox
}

func (q *Queue) pump(inbox chan<- Message) {
	defer close(inbox)
	q.mu.Lock()
	q.drain(func(m Message) { inbox <- m }, func() {})
}

// Close ends the queue: nothing is admitted afterwards, and the consumer
// returns once it has taken what is already queued. What no consumer will
// take gives back its reference here: the whole queue if nobody ever consumed
// it, and whatever the channel side still holds — Close drains the channel
// until the pump closes it, so the pump exits even if its reader stopped
// reading. Close is idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.cond.Broadcast()
	inbox := q.inbox
	var orphans []Message
	if inbox == nil && !q.drained {
		orphans, q.items = q.items, nil
	}
	q.mu.Unlock()
	releaseAll(orphans)
	if inbox != nil {
		for m := range inbox {
			m.ReleaseArena()
		}
	}
}

// Len returns the number of queued messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Stats returns the queue's counters: messages admitted (DeliveredMsgs),
// refused by the bound (InboundDrops), and the deepest the queue has ever
// been (MailboxHighWater). A node maps them onto its own kind's meaning.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{DeliveredMsgs: q.admits, InboundDrops: q.refusals, MailboxHighWater: q.hw}
}
