package transport

import (
	"sync"
	"sync/atomic"
)

// maxRetainedBatch bounds the capacity of the batch buffer a drain loop
// recycles between popAll calls. A burst can grow a batch arbitrarily; once
// processed, a buffer larger than this is dropped so the burst's memory is
// returned to the allocator instead of being pinned for the consumer's
// lifetime.
const maxRetainedBatch = 1024

// mailbox is an unbounded multi-producer FIFO queue of messages.
//
// The asynchronous model requires that a sender never blocks on a slow
// receiver (a correct process keeps taking steps regardless of what other
// processes do). A fixed-capacity channel cannot provide that, so each node
// owns a mailbox: producers append under a mutex, and the node's consumer
// takes whole runs off it in order (drainRuns).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Message
	closed bool

	// hw is the high-water mark of queued-but-undrained messages. Overload
	// on an unbounded mailbox is otherwise silent: the queue grows, nothing
	// drops, latency just disappears into it. The mark is the cheapest
	// honest signal (one comparison per push) and is surfaced through
	// Store.Stats as MailboxHighWater.
	hw int

	// bound, when positive, caps the queue depth: a push that would exceed
	// it is rejected and counted into shed instead of growing the queue.
	// The asynchronous model's "senders never block" rule is preserved —
	// an over-bound push returns immediately; the message is simply lost,
	// exactly as a lossy network would lose it, and the protocols already
	// tolerate loss via quorum slack. A bounded mailbox therefore also
	// bounds its own high-water mark. Zero means unbounded (the default
	// everywhere; overload control is strictly opt-in because a bound on a
	// CLIENT-side queue can drop quorum-completing acks — the PR 3/PR 5
	// starvation history).
	bound int
	shed  *atomic.Int64
}

// newMailbox returns an empty, open, unbounded mailbox.
func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// newBoundedMailbox returns a mailbox that sheds pushes beyond bound queued
// messages, counting each shed into sink. A non-positive bound is unbounded.
func newBoundedMailbox(bound int, sink *atomic.Int64) *mailbox {
	m := newMailbox()
	m.bound = bound
	m.shed = sink
	return m
}

// push appends a message. It reports false if the mailbox is already closed,
// or if the mailbox is bounded and full (the shed is counted; the caller
// releases any resources it pinned for the message, mirroring a closed-box
// rejection).
func (m *mailbox) push(msg Message) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.bound > 0 && len(m.items) >= m.bound {
		if m.shed != nil {
			m.shed.Add(1)
		}
		return false
	}
	m.items = append(m.items, msg)
	if len(m.items) > m.hw {
		m.hw = len(m.items)
	}
	m.cond.Signal()
	return true
}

// highWater returns the deepest the queue has ever been.
func (m *mailbox) highWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hw
}

// pop blocks until a message is available or the mailbox is closed. The
// second return value is false once the mailbox is closed and drained.
func (m *mailbox) pop() (Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.items) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.items) == 0 {
		return Message{}, false
	}
	msg := m.items[0]
	// Avoid retaining the payload of the popped slot.
	m.items[0] = Message{}
	m.items = m.items[1:]
	if len(m.items) == 0 {
		// Reset the backing array so the slice does not grow without bound
		// across bursts.
		m.items = nil
	}
	return msg, true
}

// popAll blocks until at least one message is available (or the mailbox is
// closed and drained), then takes the ENTIRE queue in one O(1) slice swap:
// the caller receives the queued batch and the mailbox adopts buf (length 0)
// as its new backing array. Callers hand back the previous batch — cleared —
// as buf, so steady-state batching ping-pongs between two arrays and
// allocates nothing. The second return value is false once the mailbox is
// closed and drained.
//
// Compared with calling pop in a loop, one lock/condvar synchronisation is
// paid per RUN of messages instead of per message. The caller owns the
// returned batch outright; it must not retain it past the next popAll call
// with the same buffer.
func (m *mailbox) popAll(buf []Message) ([]Message, bool) {
	m.mu.Lock()
	for len(m.items) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.items) == 0 {
		m.mu.Unlock()
		return nil, false
	}
	batch := m.items
	m.items = buf[:0]
	m.mu.Unlock()
	return batch, true
}

// drainRuns delivers the mailbox's messages in FIFO order, in batches, until
// the mailbox is closed and empty; after every batched pop's messages have
// been delivered, runEnd is invoked once before the next blocking pop — the
// run boundary Consume hands to the executor's ack coalescer and commit hook.
// It owns the batch-buffer recycling discipline of every mailbox consumer:
// one popAll per run of messages, entries zeroed after delivery so the
// recycled buffer does not pin payloads, and oversized burst buffers dropped
// (maxRetainedBatch) so a burst's memory is returned to the allocator.
func (m *mailbox) drainRuns(deliver func(Message), runEnd func()) {
	var buf []Message
	for {
		batch, ok := m.popAll(buf)
		if !ok {
			return
		}
		for i := range batch {
			deliver(batch[i])
			batch[i] = Message{}
		}
		runEnd()
		buf = batch
		if cap(buf) > maxRetainedBatch {
			buf = nil
		}
	}
}

// drain is drainRuns without a run callback.
func (m *mailbox) drain(deliver func(Message)) {
	m.drainRuns(deliver, func() {})
}

// close marks the mailbox closed. Messages already queued are still
// delivered; subsequent pushes are dropped.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.cond.Broadcast()
}

// len returns the number of queued messages.
func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}
