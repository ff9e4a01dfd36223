package transport

// Executor consumes a node (Consume) and runs a handler over every message it
// delivers. The handler runs inside Consume, on the goroutine that drains the
// node: the node's queue is the only queue between a Send and its handler, the
// node's run is the handler's run, and the server is the paper's one
// sequential step per message (receive, update, reply). One goroutine handles
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
// The handler runs in RUNS of messages between blocking waits, and
// RunCoalescing exposes the run boundary to the handler's OUTPUT: a run-scoped
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
// start any goroutine; call RunCoalescing.
func NewExecutor(node Node, _ KeyFunc, _ int) *Executor {
	return &Executor{node: node}
}

// SetRunEnd installs fn as the run-end hook: it is called at the end of every
// run, before flushing the run's coalesced output and whether or not the run
// produced any, and a non-nil error DISCARDS that output instead. A durable
// server commits its log here — one commit per run, acks only behind it. Must
// be called before RunCoalescing.
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

// RunCoalescing consumes the node on the calling goroutine and blocks until
// the node is closed and drained, so a caller that closes the node and then
// waits for it to return observes every delivered message handled. It may be
// called at most once.
//
// Output is batched per run: the handler receives a Sender alongside each
// message, and everything sent through it during one RUN of messages (see
// Consume — on an in-memory node, one batched pop of the mailbox) is flushed
// as one send per destination when the run ends. An idle server handling a
// lone message flushes immediately after it, so coalescing never delays a
// reply; under pipelined load a run of k requests from one client costs ONE
// acknowledgement send instead of k — and, with a run-end hook committing a
// log, one fsync instead of k.
func (e *Executor) RunCoalescing(handler func(Message, Sender)) {
	co := NewCoalescer(e.node)
	Consume(e.node, expanding(func(m Message) { handler(m, co) }), func() { e.endRun(co) })
}
