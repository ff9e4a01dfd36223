package transport

// One queue, one wake-up
// ======================
//
// Between a Send and the code that handles the message there is exactly one
// queue — the destination node's — and at most one wake-up. Claim binds the
// consumer to that queue, written once: the executor (server side) runs its
// handler as the consumer, so a request wakes at most the server's one
// goroutine.
//
// The client side wakes nobody in between: its consumers — the demux, and a
// pipeline over a bare node — claim their node push-delivered, and the
// goroutine that pushes an acknowledgement into an idle client node (a server
// executor's run-end flush in memory, a read loop on sockets, a clock event in
// simulation) delivers one run of that node's queue itself, through the demux
// route into the client engine. The only goroutine an acknowledgement wakes is
// the caller it completes, if another goroutine delivered it; the consumer
// goroutine wakes only for a backlog that run left behind.
//
// A client's request needs no wake-up either, where nothing in the server's
// run can block: a log-less server's executor claims its node TakerRuns, and a
// client broadcast (SendTaking) that finds such a server idle takes its run
// and delivers it on the client's own goroutine once the handle's lock is
// released (Queue.RunTaken). The request is enqueued under that lock, so
// pipelined requests still reach every server in nonce order; only the run
// moves after it. A serial in-memory operation is then one chain of calls on
// its caller: the broadcast runs each server, each server's run-end flush
// delivers its ack into the client, and the quorum's last ack completes the
// operation. Every other send — a plain Send or SendArena, a server's gossip,
// a socket read loop, any send to a durable server, whose run commits its log
// and may wait on the disk — only enqueues and wakes the server's goroutine,
// so a live plain Send never runs server code. A send to a client node may
// run that client's sink, which never blocks (Sink). Under a virtual clock
// every consumer is push-delivered, servers included: there a Send only
// schedules an event, and the event that pushes a message runs its handler —
// and the handler's run end — on the clock's one goroutine (WithClock). That
// queue is a Queue on every node kind: the in-memory node holds one, and so
// does the socket core (framed.Core), whose read loops fill it one whole
// frame at a time.

// Runs says who, besides the consumer's own goroutine, may deliver a claimed
// queue's runs.
type Runs uint8

const (
	// ConsumerRuns: only the consumer goroutine delivers; a push wakes it.
	ConsumerRuns Runs = iota
	// PusherRuns: a push that finds no run in progress delivers one run
	// itself, on the pushing goroutine (client nodes).
	PusherRuns
	// TakerRuns: a plain push wakes the consumer, but a sender that takes the
	// run (SendTaking) and finds none in progress delivers one run itself,
	// after releasing its own locks (log-less servers).
	TakerRuns
)

// Claimer is implemented by nodes whose Queue a consumer can claim — every
// in-memory and socket node. Nodes that only have a channel — test doubles,
// decorators — do not, and Claim ranges over their Inbox instead.
type Claimer interface {
	// Claim makes deliver and runEnd (non-nil) the node's one consumer from
	// now on and returns serve, which delivers the node's messages on the
	// calling goroutine, run by run, until the node is closed and drained.
	// Unless runs is ConsumerRuns, a pusher or taker may deliver a run on its
	// own goroutine (Queue), so deliver and runEnd must never block. It
	// reports false, having claimed nothing, when the node already feeds a
	// channel (Inbox was called first): a node has one consumer for its
	// lifetime.
	Claim(deliver func(Message), runEnd func(), runs Runs) (serve func(), ok bool)
}

// Claim makes deliver the node's one consumer before it returns, and returns
// serve: the loop that delivers, on its caller's goroutine and in delivery
// order, whatever no pusher delivers, until the node is closed and drained.
// Claiming at construction and serving on a goroutine of one's own means no
// message can reach the node before its consumer is bound. deliver owns each
// message's arena reference and releases it.
//
// Messages arrive in RUNS — whatever had queued up by the time the consumer
// came back for more — and runEnd, if non-nil, is called after the last
// message of every run, before the consumer blocks again, and once more by
// serve when the node has closed. A run is everything the node's Queue held
// at the consumer's wake-up (on a socket node whole frames only: a run never
// ends partway through a frame; under a virtual clock always one delivery),
// or, on a channel-only node, one blocking receive plus whatever else was
// immediately ready. An idle node therefore ends a run after every message
// (or frame), while a backlog ends one run for all of it: the server's ack
// coalescer and group-commit hook hang off exactly this boundary.
//
// runs says who else delivers (Runs): PusherRuns asks that the goroutine
// pushing into an idle node deliver one run itself, TakerRuns that a sender
// taking an idle node's run deliver it once it holds no lock — both for a
// deliver and runEnd that never block; the consumer goroutine takes over only
// what such a run leaves behind. Deliveries stay sequential and in order.
// Over a channel-only node runs has no effect.
func Claim(node Node, deliver func(Message), runEnd func(), runs Runs) (serve func()) {
	if runEnd == nil {
		runEnd = func() {}
	}
	if c, ok := node.(Claimer); ok {
		if serve, ok := c.Claim(deliver, runEnd, runs); ok {
			return func() {
				serve()
				runEnd()
			}
		}
	}
	inbox := node.Inbox()
	return func() {
		defer runEnd()
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
}

// expanding adapts fn, a handler of single protocol messages, to Claim's
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
// the demux calls a route's sink directly, on the goroutine delivering the
// node's run — the pusher's or the demux pump's — instead of queueing for
// another goroutine to wake up. A sink never blocks — it may take short
// locks, close channels and Send (which never blocks either).
type Sink interface {
	// Deliver hands over one message together with its arena reference,
	// which the sink releases when done with the payload. Calls are
	// sequential and in delivery order.
	Deliver(Message)
	// Closed reports that no further message will be delivered. It is called
	// exactly once, after the last Deliver has returned.
	Closed()
}
