package transport

import "sync/atomic"

// SPSC handoff tier
// =================
//
// The single-producer/single-consumer handoffs of a deployment — the
// executor's dispatcher pushing into a key-shard worker's queue, and the demux
// pump pushing into the channel side of a route read through Inbox — used to
// pay one mutex+condvar synchronisation per run of messages (mailbox.popAll
// amortised the condvar, but every push still took the lock). Both have
// exactly ONE producer goroutine and ONE consumer goroutine by construction,
// which admits a classic lock-free bounded ring: a power-of-two slot array
// with padded atomic head/tail indices, wait-free on both sides while the
// ring has room.
//
// Unbounded queueing is a CORRECTNESS requirement by default (a burst must
// never force a drop nobody asked for), so the ring cannot simply reject on
// full. Instead each
// handoff keeps the old unbounded mailbox as a SPILL path: when the ring is
// full the producer diverts to the mailbox, and stays diverted until the
// consumer has drained the spill — that ordering discipline (ring drained
// before spill, producer pinned to the spill while it is non-empty) preserves
// exact FIFO across the boundary. Steady state never touches the mailbox;
// bursts degrade to exactly the PR 3/PR 5 mailbox behaviour instead of losing
// messages.

// ringCapacity is the slot count of a handoff's ring. Must be a power of two.
// 256 covers several operations' worth of acknowledgements for any realistic
// server count (matching DefaultRouteBuffer); bursts beyond it spill to the
// unbounded mailbox.
const ringCapacity = 256

// cacheLinePad separates the producer-side and consumer-side indices so the
// two cores do not false-share a cache line.
type cacheLinePad [64]byte

// spscRing is a bounded single-producer/single-consumer ring. push may be
// called by ONE goroutine at a time, pop by ONE goroutine at a time; the
// atomic head/tail stores publish the slot contents across the pair (Go's
// sync/atomic gives the needed happens-before edges).
type spscRing struct {
	slots []Message
	mask  uint64
	_     cacheLinePad
	// head is the consumer cursor: next slot to pop. Written only by the
	// consumer.
	head atomic.Uint64
	_    cacheLinePad
	// tail is the producer cursor: next slot to fill. Written only by the
	// producer.
	tail atomic.Uint64
	_    cacheLinePad
}

// newSPSCRing builds a ring with the given power-of-two capacity.
func newSPSCRing(capacity int) *spscRing {
	if capacity&(capacity-1) != 0 || capacity <= 0 {
		panic("transport: ring capacity must be a power of two")
	}
	return &spscRing{slots: make([]Message, capacity), mask: uint64(capacity - 1)}
}

// push appends one message; it reports false when the ring is full. Producer
// side only.
func (r *spscRing) push(m Message) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.slots)) {
		return false
	}
	r.slots[t&r.mask] = m
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest message; ok is false when the ring is empty. The
// popped slot is zeroed so the ring never pins a payload. Consumer side only.
func (r *spscRing) pop() (Message, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return Message{}, false
	}
	m := r.slots[h&r.mask]
	r.slots[h&r.mask] = Message{}
	r.head.Store(h + 1)
	return m, true
}

// empty reports whether the ring currently holds no messages. Either side.
func (r *spscRing) empty() bool {
	return r.head.Load() == r.tail.Load()
}

// handoff is the SPSC queue used between an executor dispatcher and its
// key-shard workers, and behind a demux route's Inbox: a lock-free ring
// for the steady state with the unbounded mailbox as burst spill (see the
// package comment above). The producer and the consumer must each be a single
// goroutine; close may be called from anywhere.
type handoff struct {
	ring *spscRing
	// spill is the unbounded overflow queue. Its mutex also arbitrates the
	// producer's divert decision against the consumer's drain-and-reset, and
	// its closed flag is the handoff's closed flag for racing producers.
	spill *mailbox
	// spilling is true while the spill path is active: set by the producer
	// (under the spill lock) when the ring overflows, cleared by the consumer
	// (under the same lock) once the spill is drained. While set, the
	// producer keeps diverting so FIFO order holds across the boundary.
	spilling atomic.Bool
	// spills counts messages that took the spill path, for tests and
	// saturation diagnostics.
	spills atomic.Int64
	// notify wakes the consumer; capacity 1 so a pending wakeup is never
	// lost and repeated kicks coalesce.
	notify chan struct{}
	closed atomic.Bool
}

// newHandoff builds an open handoff with the default ring capacity.
func newHandoff() *handoff {
	return &handoff{
		ring:   newSPSCRing(ringCapacity),
		spill:  newMailbox(),
		notify: make(chan struct{}, 1),
	}
}

// wake kicks the consumer if it is (or is about to start) blocking.
func (h *handoff) wake() {
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// push appends one message. It reports false if the handoff is closed. A push
// racing close may be accepted and yet never delivered (exactly as if it had
// returned false); both callers of push treat an undeliverable message as
// dropped-in-transit, so the race is benign.
func (h *handoff) push(m Message) bool {
	if h.closed.Load() {
		return false
	}
	if !h.spilling.Load() && h.ring.push(m) {
		h.wake()
		return true
	}
	// Ring full, or a spill is still draining: go through the unbounded
	// mailbox. Setting spilling under the spill lock pins this and every
	// subsequent push to the spill until the consumer drains it, so messages
	// cannot overtake the spilled backlog through the ring.
	h.spill.mu.Lock()
	if h.spill.closed {
		h.spill.mu.Unlock()
		return false
	}
	if h.spill.bound > 0 && len(h.spill.items) >= h.spill.bound {
		// Bounded handoff at capacity: shed-and-count, without activating
		// the spill path (the queue's content is unchanged). The caller
		// treats the rejection exactly like a closed-handoff drop and
		// releases whatever the message pinned.
		h.spill.mu.Unlock()
		if h.spill.shed != nil {
			h.spill.shed.Add(1)
		}
		return false
	}
	h.spilling.Store(true)
	h.spill.items = append(h.spill.items, m)
	h.spill.mu.Unlock()
	h.spills.Add(1)
	h.wake()
	return true
}

// drainSpill takes the whole spill queue in one slice swap and delivers it;
// when the spill turns out empty the spill path is deactivated (under the
// lock, so a producer mid-divert re-activates it consistently). Returns the
// number of messages delivered.
func (h *handoff) drainSpill(deliver func(Message)) int {
	h.spill.mu.Lock()
	batch := h.spill.items
	h.spill.items = nil
	if len(batch) == 0 {
		h.spilling.Store(false)
	}
	h.spill.mu.Unlock()
	for i := range batch {
		deliver(batch[i])
		batch[i] = Message{}
	}
	return len(batch)
}

// drainRuns delivers messages in FIFO order until the handoff is closed and
// drained. After every RUN of messages (one pass that emptied the ring and,
// if active, the spill) runEnd is invoked once before the consumer blocks —
// the same run boundary mailbox.drainRuns exposes, used by executor workers
// to flush their run-scoped ack coalescer.
func (h *handoff) drainRuns(deliver func(Message), runEnd func()) {
	for {
		n := 0
		for {
			m, ok := h.ring.pop()
			if !ok {
				break
			}
			deliver(m)
			n++
		}
		// The ring is drained; if a burst overflowed it, drain the spill too.
		// Ring-before-spill plus the producer's stay-diverted rule is what
		// keeps FIFO exact across the overflow boundary.
		if h.spilling.Load() {
			n += h.drainSpill(deliver)
			if n > 0 {
				runEnd()
			}
			// Re-check the ring immediately: the producer may have switched
			// back to it the moment the spill emptied.
			continue
		}
		if n > 0 {
			runEnd()
			continue
		}
		if h.closed.Load() {
			// Observing closed happens-after every push that preceded close,
			// but this iteration's emptiness checks may predate those pushes:
			// re-drain until ring and spill are empty AFTER the closed
			// observation, so a message queued before close is never lost.
			// (Pushes racing close itself are dropped-in-transit; see push.)
			if !h.ring.empty() || h.spilling.Load() {
				continue
			}
			return
		}
		<-h.notify
	}
}

// drain is drainRuns without a run callback.
func (h *handoff) drain(deliver func(Message)) {
	h.drainRuns(deliver, func() {})
}

// close marks the handoff closed and wakes the consumer so it can finish
// draining and exit. Idempotent; callable from any goroutine.
func (h *handoff) close() {
	h.closed.Store(true)
	h.spill.close()
	h.wake()
}
