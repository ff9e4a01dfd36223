package transport

// Executor consumes a node (Claim) and runs a handler over every message it
// delivers. The handler runs as the node's consumer: on the goroutine that
// serves the node; on a client's goroutine, for a run the client's broadcast
// took (TakerRuns, Queue.RunTaken); or, under a virtual clock, inside the
// clock event that delivers the message (WithClock). Either way the node's
// queue is the only queue between a Send and its handler, the node's run is
// the handler's run, runs never overlap, and the server is the paper's one
// sequential step per message (receive, update, reply). One consumer handles
// every key, so each register's state has a single mutator and the hot-path
// aliasing discipline of internal/wire/pool.go holds: an ack may alias the
// key's stored state because nothing else mutates it.
//
// Batch envelopes (wire.Batch, produced by the transports' flush coalescing
// and by clients pipelining over batched links) are expanded before the
// handler sees them, so handlers only ever see single protocol messages, in
// envelope order — the sender's send order. Undecodable messages reach the
// handler too, so it can account for the drop itself.
//
// The handler runs in RUNS of messages between blocking waits, and the
// executor exposes the run boundary to the handler's OUTPUT: a run-scoped
// Coalescer batches the run's acknowledgements into one send per destination,
// flushed when the run ends — after the run-end hook (SetRunEnd), if one is
// set, so whatever the run staged is committed once, before any of its acks
// leaves.
type Executor struct {
	node Node
	// runEnd is the run-end hook (see SetRunEnd); nil without one.
	runEnd func() error
}

// NewExecutor builds an executor over the node. Both other parameters are
// ignored: the executor has one worker and does not look at keys. It does not
// start any goroutine; call Claim or RunCoalescing.
func NewExecutor(node Node, _ KeyFunc, _ int) *Executor {
	return &Executor{node: node}
}

// SetRunEnd installs fn as the run-end hook: it is called at the end of every
// run, before flushing the run's coalesced output and whether or not the run
// produced any, and a non-nil error DISCARDS that output instead. A durable
// server commits its log here — one commit per run, acks only behind it. Must
// be called before Claim or RunCoalescing.
func (e *Executor) SetRunEnd(fn func() error) { e.runEnd = fn }

// endRun closes one run: the hook, then the run's output — sent if the hook
// is absent or returned nil, dropped otherwise.
func (e *Executor) endRun(co *Coalescer) {
	if e.runEnd != nil && e.runEnd() != nil {
		co.Discard()
		return
	}
	co.Flush()
}

// RunCoalescing is Claim(handler, ConsumerRuns)() on the calling goroutine:
// it blocks until the node is closed and drained, so a caller that closes the
// node and then waits for it to return observes every delivered message
// handled.
func (e *Executor) RunCoalescing(handler func(Message, Sender)) { e.Claim(handler, ConsumerRuns)() }

// Claim makes the handler the node's consumer before it returns and returns
// serve, which runs the handler over the node's messages until the node is
// closed and drained. Call it at most once.
//
// Output is batched per run: the handler receives a Sender alongside each
// message, and everything sent through it during one RUN of messages (see
// transport.Claim — everything the node's Queue held at the consumer's
// wake-up) is flushed as one send per destination when the run ends. An idle
// server handling a lone message flushes immediately after it, so coalescing
// never delays a reply; under pipelined load a run of k requests from one
// client costs ONE acknowledgement send instead of k — and, with a run-end
// hook committing a log, one fsync instead of k.
//
// runs is ConsumerRuns or TakerRuns (see Runs). TakerRuns lets a client's
// broadcast run an idle server on the client's goroutine, so it is only for a
// handler and run-end hook that never block: a server without a log.
func (e *Executor) Claim(handler func(Message, Sender), runs Runs) (serve func()) {
	co := NewCoalescer(e.node)
	return Claim(e.node, expanding(func(m Message) { handler(m, co) }), func() { e.endRun(co) }, runs)
}
