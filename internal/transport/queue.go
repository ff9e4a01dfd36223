package transport

import (
	"sync"
	"sync/atomic"

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
// once.
//
// The asynchronous model requires that a sender never blocks on a slow
// receiver (a correct process keeps taking steps regardless of what other
// processes do). A fixed-capacity channel cannot provide that, so producers
// append under a mutex and never wait.
//
// A queue has one consumer for its lifetime, chosen by whichever of DrainRuns
// and Inbox comes first: DrainRuns runs the queue on the caller's goroutine
// (transport.Consume, the product path), Inbox starts a pump goroutine that
// feeds a channel, for code that selects on one (tests, the layer
// benchmarks).
type Queue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []Message
	closed bool

	// hw is the high-water mark of queued-but-undrained messages. Overload
	// on an unbounded queue is otherwise silent: the queue grows, nothing
	// drops, latency just disappears into it. The mark is the cheapest
	// honest signal (one comparison per push) and is surfaced through
	// Store.Stats as MailboxHighWater.
	hw int

	// bound, when positive, caps the queue depth: a push that would exceed
	// it is rejected and counted into drops instead of growing the queue.
	// The "senders never block" rule is preserved — an over-bound push
	// returns immediately; the message is simply lost, exactly as a lossy
	// network would lose it, and the protocols already tolerate loss via
	// quorum slack. Zero means unbounded.
	bound int
	drops *atomic.Int64

	// drained is set once DrainRuns claims the queue; inbox is the channel
	// side, nil until the first Inbox call.
	drained bool
	inbox   chan Message
}

// NewQueue returns an empty, open queue that drops pushes beyond bound queued
// messages, counting each drop into drops (which may be nil). A non-positive
// bound is unbounded.
func NewQueue(bound int, drops *atomic.Int64) *Queue {
	q := &Queue{bound: bound, drops: drops}
	q.cond.L = &q.mu
	return q
}

// Push appends a message, which brings its one reference (arena and, under a
// virtual clock, activity token) with it. It reports false, having released
// that reference, when the queue is closed, or bounded and full (the drop is
// counted).
func (q *Queue) Push(m Message) bool {
	q.mu.Lock()
	ok := q.admit(m)
	if ok {
		q.cond.Signal()
	}
	q.mu.Unlock()
	if !ok {
		m.ReleaseArena()
	}
	return ok
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
		q.cond.Signal()
	}
	q.mu.Unlock()
	frame.ReleaseArena()
	return admitted
}

// admit appends m unless the queue is closed or full; q.mu is held.
func (q *Queue) admit(m Message) bool {
	if q.closed {
		return false
	}
	if q.bound > 0 && len(q.items) >= q.bound {
		if q.drops != nil {
			q.drops.Add(1)
		}
		return false
	}
	q.items = append(q.items, m)
	if len(q.items) > q.hw {
		q.hw = len(q.items)
	}
	return true
}

// DrainRuns implements RunDrainer: the caller becomes the queue's consumer. It
// reports false, having delivered nothing, when Inbox claimed the queue first.
func (q *Queue) DrainRuns(deliver func(Message), runEnd func()) bool {
	q.mu.Lock()
	if q.inbox != nil {
		q.mu.Unlock()
		return false
	}
	q.drained = true
	q.mu.Unlock()
	q.drain(deliver, runEnd)
	return true
}

// drain is the consumer loop. It takes the whole queue at each wake-up — a
// run is everything queued by then, one lock per run instead of one per
// message — delivers it in FIFO order and calls runEnd, until the queue is
// closed and empty. The taken run's backing array, cleared so it pins no
// payload, becomes the queue's next one: a steady state ping-pongs between two
// arrays and allocates nothing, and a burst's oversized array is dropped
// (maxRetainedBatch).
func (q *Queue) drain(deliver func(Message), runEnd func()) {
	var spare []Message
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		run := q.items
		q.items = spare[:0]
		q.mu.Unlock()
		if len(run) == 0 {
			return
		}
		for i := range run {
			deliver(run[i])
			run[i] = Message{}
		}
		runEnd()
		spare = run
		if cap(spare) > maxRetainedBatch {
			spare = nil
		}
	}
}

// Inbox returns the queue's messages as a channel. The first call claims the
// queue for a pump goroutine that feeds the channel and closes it once the
// queue is closed and drained; a queue DrainRuns claimed first yields a closed
// channel.
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

// HighWater returns the deepest the queue has ever been.
func (q *Queue) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hw
}
