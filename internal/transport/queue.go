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
// A queue has one consumer for its lifetime, chosen by whichever of Claim
// and Inbox comes first: Claim binds a deliver and runEnd and returns the loop
// that serves the queue on the caller's goroutine (transport.Claim: a
// server's executor, the client side), Inbox starts a pump goroutine that
// feeds a channel, for code that selects on one (tests, the layer
// benchmarks).
//
// Push delivery: on a queue claimed with push set, the goroutine whose push
// finds no run in progress takes the queue as one run and delivers it itself,
// so an acknowledgement reaches the client engine on the goroutine that
// produced it — a server executor's flush, a socket read loop, a clock event
// — and the consumer goroutine sleeps. A pusher that finds a run in progress
// only appends and returns: senders never block. A pusher delivers at most
// one run; whatever arrived meanwhile is handed to the consumer goroutine,
// which drains until the queue is empty, so no producer is kept from its own
// work (a read loop from its socket) by other producers' traffic. One flag,
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
	// pusher. deliver and runEnd are the consumer's, nil until the queue is
	// claimed (the channel side's pump claims it too); push lets pushers
	// deliver.
	running bool
	deliver func(Message)
	runEnd  func()
	push    bool

	// hw is the high-water mark of queued-but-undrained messages. Overload
	// on an unbounded queue is otherwise silent: the queue grows, nothing
	// drops, latency just disappears into it. The mark is the cheapest
	// honest signal (one comparison per push) and is surfaced through
	// Store.Stats as MailboxHighWater. admits and refusals count the
	// messages admitted and those the bound refused; entries counts the
	// queue entries admitted, so a batch envelope is one entry.
	hw                        int
	admits, refusals, entries int64

	// bound, when positive, caps the queue depth: a push that would exceed
	// it is refused and counted instead of growing the queue. The "senders
	// never block" rule is preserved — an over-bound push returns
	// immediately; the message is simply lost, exactly as a lossy network
	// would lose it, and the protocols already tolerate loss via quorum
	// slack. Zero means unbounded.
	bound int

	// inbox is the channel side, nil until the first Inbox call.
	inbox chan Message
}

// NewQueue returns an empty, open queue that refuses, and counts, pushes
// beyond bound queued messages. A non-positive bound is unbounded.
func NewQueue(bound int) *Queue {
	q := &Queue{bound: bound}
	q.cond.L = &q.mu
	return q
}

// Push appends a message, which brings its one arena reference with it. It
// reports false, having released that reference, when the queue is closed,
// or bounded and full (the refusal is counted).
func (q *Queue) Push(m Message) bool {
	admitted, _ := q.offer(m)
	return admitted
}

// offer is Push that also reports whether m has left the queue by the time
// it returns: refused, or delivered by this very call — on a push-delivered
// queue that no run occupied.
func (q *Queue) offer(m Message) (admitted, gone bool) {
	q.mu.Lock()
	if !q.admit(m) {
		q.mu.Unlock()
		m.ReleaseArena()
		return false, true
	}
	gone = q.push && !q.running
	q.admitted()
	return true, gone
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
	case q.push:
		q.run()
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
// queue counts the refusal); q.mu is held. An envelope counts the messages
// it carries (Message.Count).
func (q *Queue) admit(m Message) bool {
	if q.closed {
		return false
	}
	n := m.Count()
	if q.bound > 0 && len(q.items) >= q.bound {
		q.refusals += n
		return false
	}
	q.items = append(q.items, m)
	q.admits += n
	q.entries++
	q.hw = max(q.hw, len(q.items))
	return true
}

// Claim implements Claimer: deliver and runEnd (non-nil) become the queue's
// consumer, delivered by pushers too if push is set, unless Inbox claimed the
// queue first. serve drains it on the caller's goroutine until it is closed
// and empty and no pusher is still delivering.
func (q *Queue) Claim(deliver func(Message), runEnd func(), push bool) (serve func(), ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.deliver != nil {
		return nil, false
	}
	q.deliver, q.runEnd, q.push = deliver, runEnd, push
	return q.serve, true
}

// serve is the consumer loop. It takes the whole queue at each wake-up — a
// run is everything queued by then, one lock per run instead of one per
// message — and delivers it, until the queue is closed and empty and no
// pusher is still delivering.
func (q *Queue) serve() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for q.running || (len(q.items) == 0 && !q.closed) {
			q.cond.Wait()
		}
		if len(q.items) == 0 {
			return
		}
		q.run()
	}
}

// run delivers everything queued as one run, in FIFO order, then calls
// runEnd. q.mu is held on entry and on return, and released in between; the
// running flag keeps every other delivery out meanwhile. The run's array,
// cleared so it pins no payload, becomes the spare.
func (q *Queue) run() {
	run := q.items
	q.items, q.spare = q.spare[:0], nil
	q.running = true
	q.mu.Unlock()
	for i := range run {
		q.deliver(run[i])
		run[i] = Message{}
	}
	q.runEnd()
	q.mu.Lock()
	q.running = false
	if cap(run) <= maxRetainedBatch {
		q.spare = run
	}
}

// Inbox returns the queue's messages as a channel. The first call claims the
// queue for a pump goroutine that feeds the channel and closes it once the
// queue is closed and drained; a queue Claim claimed first yields a closed
// channel.
func (q *Queue) Inbox() <-chan Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inbox == nil {
		inbox := make(chan Message)
		q.inbox = inbox
		if q.deliver != nil {
			close(inbox)
		} else {
			q.deliver, q.runEnd = func(m Message) { inbox <- m }, func() {}
			go func() {
				defer close(inbox)
				q.serve()
			}()
		}
	}
	return q.inbox
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
	if q.deliver == nil {
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

// Stats returns the queue's counters: messages admitted (DeliveredMsgs), the
// entries that carried them (FramesDelivered), messages refused by the bound
// (InboundDrops), and the deepest the queue has ever been
// (MailboxHighWater). A node maps them onto its own kind's meaning.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{DeliveredMsgs: q.admits, FramesDelivered: q.entries, InboundDrops: q.refusals, MailboxHighWater: q.hw}
}
