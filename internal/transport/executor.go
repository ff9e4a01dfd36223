package transport

import (
	"sync"
	"sync/atomic"

	"fastread/internal/shard"
)

// Executor consumes a node (Consume) and runs a handler over every message it
// delivers. By default — one worker — the handler runs inside Consume, on the
// goroutine that drains the node: the node's queue is the only queue between a
// Send and its handler, the node's run is the handler's run, and the server
// is the paper's one sequential step per message (receive, update, reply).
//
// With more than one worker the executor opts into key sharding, so one server
// process can spread distinct registers across cores. Each delivered message
// is dispatched by the hash of its register key to a fixed worker: the SAME
// key always lands on the SAME worker. That preserves, at worker granularity,
// the two properties the protocol servers rely on:
//
//   - Per-key FIFO delivery. The dispatcher consumes the node in delivery
//     order and each worker's queue is FIFO, so two messages carrying the
//     same key are handled in the order the transport delivered them.
//     Messages for DIFFERENT keys may be handled in any order, which the
//     asynchronous model already permits (they could have been delayed).
//
//   - Sole mutator. All messages naming a key are handled by one goroutine,
//     so that key's server state has a single mutating goroutine and the
//     hot-path aliasing discipline of internal/wire/pool.go carries over
//     unchanged: an ack may alias the key's stored state because no other
//     worker ever mutates it.
//
// Batch envelopes (wire.Batch, produced by the transports' flush coalescing
// and by clients pipelining over batched links) are expanded BEFORE dispatch,
// so each carried message is routed by its own key — one envelope may fan out
// across workers — and handlers only ever see single protocol messages.
// Per-key FIFO survives expansion: a batch's messages are pushed in envelope
// order, and envelope order is the sender's send order.
//
// Messages whose key cannot be extracted (keyOf reports ok=false, e.g. an
// undecodable payload) are routed to worker 0 rather than dropped, so the
// handler still observes them and can trace the drop itself.
//
// The dispatcher→worker handoff is a lock-free SPSC ring (see ring.go): the
// dispatcher is each worker queue's single producer and the worker its single
// consumer, with the unbounded mailbox kept as the burst spill path
// (order-preserving, never dropping). Either way the handler runs in RUNS of
// messages between blocking waits, and RunCoalescing exposes the run boundary
// to the handler's OUTPUT: a run-scoped Coalescer batches the run's
// acknowledgements into one send per destination, flushed when the run ends —
// after the run-end hook (SetRunEnd), if one is set, so whatever the run
// staged is committed once, before any of its acks leaves.
type Executor struct {
	node  Node
	keyOf KeyFunc
	// workers are the key-shard workers' queues; nil with one worker, whose
	// handler runs on the goroutine that consumes the node.
	workers []*handoff
	// runEnd is the run-end hook (see SetRunEnd); nil without one.
	runEnd func() error
	// sheds counts messages dropped by bounded worker queues (see
	// SetQueueBound); always 0 in the default unbounded configuration.
	sheds atomic.Int64
}

// NewExecutor builds an executor over the node. workers <= 1 is the default
// single worker: the handler runs on the goroutine that consumes the node, with
// no dispatcher and no ring. workers > 1 opts into that many key-shard workers
// behind a dispatcher. It does not start any goroutine; call RunCoalescing.
func NewExecutor(node Node, keyOf KeyFunc, workers int) *Executor {
	e := &Executor{node: node, keyOf: keyOf}
	if workers > 1 {
		e.workers = make([]*handoff, workers)
		for i := range e.workers {
			e.workers[i] = newHandoff()
		}
	}
	return e
}

// Workers returns the number of workers running the handler.
func (e *Executor) Workers() int { return max(1, len(e.workers)) }

// SetQueueBound caps each worker's overflow queue at n messages (on top of
// the fixed per-worker ring): a dispatch that finds the target worker's ring
// full AND its overflow at the cap is shed and counted (Sheds) instead of
// queued, so a server's memory and queueing delay stay bounded under
// overload. Shedding a REQUEST is safe — the client's quorum logic already
// tolerates lost messages (retry or context expiry) — which is why the bound
// lives here on the server ingress and not on client-side acks. n <= 0 (the
// default) keeps the never-drop spill of PR 3/PR 5.
//
// Must be called before RunCoalescing. A single-worker executor has no worker
// queues, so this is a no-op there: bound the node's own mailbox instead
// (inmem WithMailboxBound).
func (e *Executor) SetQueueBound(n int) {
	if n <= 0 {
		return
	}
	for _, h := range e.workers {
		h.spill.bound = n
		h.spill.shed = &e.sheds
	}
}

// SetRunEnd installs fn as the run-end hook: every worker calls it at the end
// of every run, before flushing the run's coalesced output and whether or not
// the run produced any, and a non-nil error DISCARDS that output instead. A
// durable server commits its log here — one commit per run, acks only behind
// it. With key-shard workers fn is called from every worker goroutine,
// concurrently. Must be called before RunCoalescing.
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

// Sheds returns the number of messages shed by bounded worker queues.
func (e *Executor) Sheds() int64 { return e.sheds.Load() }

// RunCoalescing consumes the node across the workers and blocks until the
// node is closed AND every worker has drained its queue, so a caller that
// closes the node and then waits for it to return observes every delivered
// message handled. It may be called at most once.
//
// Output is batched per run: the handler receives a Sender alongside each
// message, and everything sent through it during one RUN of messages (see
// Consume — on an in-memory node, one batched pop of the mailbox) is flushed
// as one send per destination when the run ends. An idle server handling a
// lone message flushes immediately after it, so coalescing never delays a
// reply; under pipelined load a run of k requests from one client costs ONE
// acknowledgement send instead of k — and, with a run-end hook committing a
// log, one fsync instead of k.
//
// With a single worker (the default) the handler runs on the calling
// goroutine: the node's queue is the only queue, and its run boundary is the
// executor's — one mailbox run is one coalescer run and one commit group.
// Otherwise the caller is the dispatcher: expand each delivered message, route
// by key hash into per-worker queues, and on close drain every worker before
// returning.
//
// Arena accounting: each queued sub-message takes its own reference (several
// workers may hold views of one frame concurrently), the worker releases it
// after handling, and the dispatcher releases the delivered envelope's
// reference once expansion is done.
func (e *Executor) RunCoalescing(handler func(Message, Sender)) {
	if e.workers == nil {
		co := NewCoalescer(e.node)
		Consume(e.node, expanding(func(m Message) { handler(m, co) }), func() { e.endRun(co) })
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(e.workers))
	for _, box := range e.workers {
		go func(b *handoff) {
			defer wg.Done()
			co := NewCoalescer(e.node)
			b.drainRuns(func(m Message) {
				handler(m, co)
				m.ReleaseArena()
			}, func() { e.endRun(co) })
		}(box)
	}
	n := uint64(len(e.workers))
	route := func(m Message) {
		w := uint64(0)
		if key, ok := e.keyOf(m); ok {
			// shard.HashBytes is the same FNV-1a the servers' state maps
			// stripe with, so worker sharding and state striping cannot
			// diverge.
			w = shard.HashBytes(key) % n
		}
		m.RetainArena()
		if !e.workers[w].push(m) {
			m.ReleaseArena()
		}
	}
	Consume(e.node, expanding(route), nil)
	for _, box := range e.workers {
		box.close()
	}
	wg.Wait()
}
