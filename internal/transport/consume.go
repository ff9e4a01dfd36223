package transport

// One queue, one wake-up
// ======================
//
// Between a Send and the code that handles the message there is exactly one
// queue — the destination node's — and exactly one wake-up: the goroutine
// that consumes that node. Consume is that consumer's loop, written once;
// the executor (server side) and the demux pump (client side) are its two
// callers, and whatever they do with a message — run a handler, call a
// client engine — happens on the goroutine Consume was called on. The rule
// holds on both sides: a server's executor runs its handler inside Consume.
//
// Send never runs receiver code: the node's queue stays the one asynchronous
// boundary, so a sender may hold its own locks across a broadcast.

// RunDrainer is implemented by nodes that own a multi-producer queue a
// consumer can drain on its own goroutine: the in-memory node's mailbox and
// the socket core's inbound queue (framed.Core), which a read loop fills one
// whole frame at a time. Nodes that only have a channel — test doubles,
// decorators — do not, and Consume ranges over their Inbox instead.
type RunDrainer interface {
	// DrainRuns delivers the node's messages on the calling goroutine, run
	// by run, until the node is closed and drained. It reports false, having
	// delivered nothing, when the node already feeds a channel (Inbox was
	// called first): a node has one consumer style for its lifetime.
	DrainRuns(deliver func(Message), runEnd func()) bool
}

// Consume delivers every message the node receives to deliver, on the calling
// goroutine and in delivery order, until the node is closed and drained; it
// is the one consumer loop over a Node. deliver owns each message's reference
// (arena and, under a virtual clock, activity token) and releases it.
//
// Messages arrive in RUNS — whatever had queued up by the time the consumer
// came back for more — and runEnd, if non-nil, is called after the last
// message of every run, before the consumer blocks again, and once more when
// the node has closed. A run is one batched pop of an in-memory node's
// mailbox (one message per run on a network without batching), one batched
// pop of a socket node's inbound queue (whole frames only: a run never ends
// partway through a frame), or, on a channel-only node, one blocking receive
// plus whatever else was immediately ready. An idle node therefore ends a run
// after every message (or frame), while a backlog ends one run for all of it:
// the server's ack coalescer and group-commit hook hang off exactly this
// boundary.
func Consume(node Node, deliver func(Message), runEnd func()) {
	if runEnd == nil {
		runEnd = func() {}
	}
	defer runEnd()
	if d, ok := node.(RunDrainer); ok && d.DrainRuns(deliver, runEnd) {
		return
	}
	inbox := node.Inbox()
	for msg := range inbox {
		deliver(msg)
	burst:
		for {
			select {
			case more, ok := <-inbox:
				if !ok {
					runEnd()
					return
				}
				deliver(more)
			default:
				break burst
			}
		}
		runEnd()
	}
}

// expanding adapts fn, a handler of single protocol messages, to Consume's
// deliver: every message a delivery carries (one, or a batch envelope's many)
// goes to fn, then the delivery's own reference is released. fn takes its own
// reference (RetainArena) for whatever it hands on.
func expanding(fn func(Message)) func(Message) {
	return func(msg Message) {
		Expand(msg, fn)
		msg.ReleaseArena()
	}
}

// Sink is the receiving end a consumer can be bound to in place of a channel:
// the demux pump calls a route's sink directly, on its own goroutine, instead
// of queueing for another goroutine to wake up. A sink never blocks — it may
// take short locks, close channels and Send (which never blocks either).
type Sink interface {
	// Deliver hands over one message together with its reference (arena and
	// activity token), which the sink releases when done with the payload.
	// Calls are sequential and in delivery order.
	Deliver(Message)
	// Closed reports that no further message will be delivered. It is called
	// exactly once, after the last Deliver has returned.
	Closed()
}
