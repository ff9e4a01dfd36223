// Acknowledgement demultiplexer: the lower half of the client engine.
//
// A Pipeline keeps up to N operations of one client handle in flight: every
// acknowledgement delivered to the handle's node is offered to every pending
// operation, so operations complete independently, in whatever order their
// quorums assemble. The protocols' per-operation nonces (read counters, write
// timestamps) are what keep concurrent operations' acknowledgements apart —
// the pipeline adds no wire state of its own, and a serial operation is
// exactly a pipeline of depth one. Client (client.go) is the upper half: it
// runs a protocol's round description on a Pipeline and is the only thing the
// protocol packages see.
//
// A round's Op is recycled: once its completion has returned, its acks are
// released and its slot is freed (or handed to the operation's next round),
// it goes back to the pipeline's free list and serves the handle's later
// rounds. A handle thus allocates Ops, each with an ack buffer sized to the
// round's quorum, only while it has never before had that many of them
// pending or finishing at once.
// Whatever still names a recycled Op — a future bound to it, a blocking
// call's abort, a context callback that fires late — names it as a round: the
// Op with the generation it was registered under. Recycling bumps the
// generation under p.mu, so such a late abort is a no-op and never reaches
// the operation the Op serves now.
package protoutil

import (
	"context"
	"sync"
	"time"

	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// DefaultPipelineDepth is the per-handle in-flight bound used when a client
// is configured with a non-positive depth.
const DefaultPipelineDepth = 16

// MaxPipelineDepth caps the configured depth. The bound exists for
// correctness, not taste: servers bound their per-client bookkeeping by
// assuming a client's live operations span a limited nonce window (the
// maxmin reply frontier's maxReplyLag presumes gaps more than 1024 nonces
// behind the newest answered operation are abandoned), so a pipeline deeper
// than that window could see a slow live operation classified as abandoned
// and starved. 512 keeps a 2x margin below the tightest server-side lag.
const MaxPipelineDepth = 512

// Pipeline demultiplexes acknowledgements for up to `depth` concurrent
// in-flight operations over one client node; one Pipeline is one node's
// consumer.
//
// Delivery: a Pipeline is a transport.Sink, and over a node that can call one
// — a demux route, which is what every Store and regclient handle is — it
// owns no goroutine: the demux calls Deliver on the goroutine that pushed the
// acknowledgement into the client's node (a server executor's flush in
// memory, a socket read loop, a clock event), so an acknowledgement goes from
// its producer to the operation it completes without waking anyone in
// between, and a handle costs its slots and its Ops (pending or recycled),
// nothing else. Over any other
// node the pipeline claims the node push-delivered into the same Deliver
// (transport.Claim: over an in-memory or socket node the pusher delivers
// there too) and starts a dispatcher goroutine that takes only a backlog.
// Either way the pipeline is the node's consumer before NewPipeline returns,
// not lazily on first use: a handle that has not submitted anything yet can
// still RECEIVE traffic — a reader incarnation created by a restart inherits
// the acknowledgements its predecessor's aborted operations left in flight —
// and an unconsumed node queues forever (and, under the virtual clock, fails
// the Step that delivers to it).
//
// When the node closes (the node, its demux route, or the whole store shut
// down) every still-pending operation fails with ErrInboxClosed.
//
// Locking: p.mu orders registration, matching and completion. Completions
// are ALWAYS invoked outside p.mu (a completion takes its client handle's own
// mutex, and the submission path holds that mutex while registering —
// invoking completions under p.mu would invert that order). Because Deliver
// runs on a producer's goroutine — a server's run, which in memory may be
// running on a client's goroutine that took it, a read loop — or on the one
// that serves every handle of the node, nothing it reaches may block: a
// completion only takes the handle's mutex, closes a future's channel, sends
// on a blocking call's one-slot channel (which nothing else fills) or
// broadcasts the operation's next round, and Send never blocks on any
// transport. A next round's broadcast takes idle servers' runs like the
// first round's, and the completion delivers them after releasing the
// handle's mutex, still on the delivering goroutine: no lock of the handle is
// held while a server runs, and runs nest at most once per node, since a run
// is only taken or pushed from an idle queue and holds it until it ends.
// Nested there, the client node is mid-run, so the next round's
// acknowledgements wait for the node's consumer.
type Pipeline struct {
	node transport.Node

	// slots is the in-flight depth semaphore: Acquire fills, completion
	// (or abort) drains.
	slots chan struct{}

	mu     sync.Mutex
	closed bool
	ops    []*Op
	// free holds the finished Ops registerHandler reuses.
	free []*Op

	// scratch is Deliver's decode target. Deliver calls are sequential, and
	// the pipeline's traffic names one register, so the decoded key hits the
	// message's memo every time. Deliver resets it before returning: its Cur,
	// Prev and WriterSig alias the delivered payload.
	scratch wire.Message

	// done closes when the node has closed; Acquire uses it to fail fast on
	// a dead pipeline instead of blocking on a slot forever.
	done chan struct{}
}

var _ transport.Sink = (*Pipeline)(nil)

// sinkBinder is implemented by nodes that deliver by calling a sink instead
// of feeding a channel (transport's demux routes).
type sinkBinder interface {
	BindSink(transport.Sink) bool
}

// NewPipeline builds an engine over the node with the given in-flight depth
// (DefaultPipelineDepth if depth <= 0) and makes it the node's consumer: the
// node's sink when the node takes one, a dispatcher goroutine over the node
// otherwise.
//
// The ignored third parameter is pinned by frozen cmd/benchreport/layers.go:493.
func NewPipeline(node transport.Node, depth int, _ any) *Pipeline {
	if depth <= 0 {
		depth = DefaultPipelineDepth
	}
	if depth > MaxPipelineDepth {
		depth = MaxPipelineDepth
	}
	p := &Pipeline{
		node:  node,
		slots: make(chan struct{}, depth),
		done:  make(chan struct{}),
	}
	if b, ok := node.(sinkBinder); !ok || !b.BindSink(p) {
		serve := transport.Claim(node, p.Deliver, nil, transport.PusherRuns)
		go func() {
			serve()
			p.Closed()
		}()
	}
	return p
}

// Depth returns the configured in-flight bound.
func (p *Pipeline) Depth() int { return cap(p.slots) }

// Op is one in-flight round: the acknowledgements collected so far, one per
// server that sent it, and the handler to run when the quorum assembles (or
// the round dies).
//
// The engine's Ops are recycled (registerHandler): an Op returns to its
// pipeline's free list only after its completion has returned, its acks are
// released and its slot is freed or passed on, and its generation changes
// then, so a round held past that point aborts nothing. Register's Op is the
// caller's and is never recycled.
type Op struct {
	p       *Pipeline
	need    int
	handler opHandler
	// fn is Register's closure pair, adapted in place so such an operation
	// is still one allocation; a non-nil fn.done marks an Op that is never
	// recycled.
	fn funcHandler

	// Guarded by p.mu. acks is allocated once with capacity need and kept
	// across recycling; gen counts the Op's recyclings.
	acks []Ack
	done bool
	gen  uint64
}

// round names one registration of an Op: the Op and the generation it was
// registered under.
type round struct {
	op  *Op
	gen uint64
}

// abort is Op.Abort for this registration only: once the Op has been
// recycled it does nothing.
func (r round) abort(err error) {
	p := r.op.p
	p.mu.Lock()
	if r.op.gen != r.gen {
		p.mu.Unlock()
		return
	}
	r.op.abortLocked(err)
}

// Acquire reserves one in-flight slot, blocking while the pipeline is at
// depth. It fails with the context's error, or with ErrInboxClosed once the
// node is gone. If the context carries an admission budget
// (WithAdmissionWait) and no slot frees within it, Acquire fails fast with
// ErrOverloaded — the typed signal the open-loop harness and overloaded
// clients shed on rather than queueing without bound.
func (p *Pipeline) Acquire(ctx context.Context) error {
	// Fast path: a free slot costs one channel op and never consults the
	// context, so admission control is free when the pipeline has headroom.
	select {
	case p.slots <- struct{}{}:
		return nil
	default:
	}
	if d := admissionWait(ctx); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case p.slots <- struct{}{}:
			return nil
		case <-timer.C:
			return ErrOverloaded
		case <-ctx.Done():
			return ctx.Err()
		case <-p.done:
			return ErrInboxClosed
		}
	}
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		return ErrInboxClosed
	}
}

// release frees one in-flight slot.
func (p *Pipeline) release() {
	<-p.slots
}

// opHandler is one round's acceptance predicate and completion in one value.
// The client engine's pooled per-operation state implements it, and
// registering its pointer converts to the interface without allocating.
type opHandler interface {
	// accept reports whether the acknowledgement belongs to this round. It
	// runs under the pipeline mutex.
	accept(from types.ProcessID, m *wire.Message) bool
	// complete runs exactly once, outside the pipeline mutex: with the quorum
	// acknowledgements on success, or with nil acks and the fatal error. The
	// acks (and everything they alias) are released when complete returns.
	// It reports whether the operation goes on to another round on the same
	// in-flight slot; otherwise the slot frees, so one Acquire bounds whole
	// operations, not round-trips.
	complete(acks []Ack, err error) (keepSlot bool)
}

// funcHandler adapts a filter/completion closure pair to opHandler.
type funcHandler struct {
	filter AckFilter
	done   func(acks []Ack, err error)
}

func (h *funcHandler) accept(from types.ProcessID, m *wire.Message) bool {
	return h.filter == nil || h.filter(from, m)
}

func (h *funcHandler) complete(acks []Ack, err error) bool {
	h.done(acks, err)
	return false
}

// Register adds an operation waiting for `need` acknowledgements accepted by
// the filter (nil accepts every decodable server message); complete runs
// exactly once, outside the pipeline mutex, and the slot frees after it. Like
// every completion it may run on whatever goroutine delivers the node's
// acknowledgements, so it must not block: hand the result to a buffered
// channel or close one. It is the closure spelling of the engine's
// registration, kept for measuring the pipeline alone (cmd/benchreport's
// protoutil.pipeline_op_us cell). The Op is the caller's: it is never
// recycled, so Abort may be called on it at any time.
func (p *Pipeline) Register(need int, filter AckFilter, complete func(acks []Ack, err error)) *Op {
	op := &Op{p: p, need: need}
	op.fn = funcHandler{filter: filter, done: complete}
	op.handler = &op.fn
	p.mu.Lock()
	p.registerLocked(op)
	return op
}

// registerHandler is Register with the filter and completion folded into one
// opHandler value, on a recycled Op when the pipeline has a finished one. The
// returned round is what may abort it later.
func (p *Pipeline) registerHandler(need int, h opHandler) round {
	p.mu.Lock()
	var op *Op
	if n := len(p.free); n > 0 {
		op = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		op = &Op{p: p}
	}
	op.need, op.handler = need, h
	r := round{op: op, gen: op.gen}
	p.registerLocked(op)
	return r
}

// registerLocked adds the operation to the pending set and releases p.mu. The
// caller must hold a slot from Acquire and registers BEFORE broadcasting its
// request, so no acknowledgement can be delivered unmatched. An operation
// that cannot wait completes asynchronously (the caller typically holds its
// handle mutex, and the completion will want it too), still exactly once:
// with ErrInboxClosed on a dead pipeline, and at once with no
// acknowledgements when need <= 0 — a quorum of nothing is already assembled.
func (p *Pipeline) registerLocked(op *Op) {
	if cap(op.acks) < op.need {
		// Quorum sizes are known up front: one allocation, no growth, kept
		// while the Op is recycled.
		op.acks = make([]Ack, 0, op.need)
	}
	if p.closed || op.need <= 0 {
		op.done = true
		var err error
		if p.closed {
			err = ErrInboxClosed
		}
		p.mu.Unlock()
		go op.finish(nil, err)
		return
	}
	op.done = false
	p.ops = append(p.ops, op)
	p.mu.Unlock()
}

// Abort fails the operation with the given error if it has not completed
// yet: it is deregistered, its completion runs with err, and its slot frees.
// Aborting one operation never disturbs its siblings — their
// acknowledgements keep being delivered. Abort after
// completion is a no-op, so racing a quorum is safe. It is for Register's
// Ops, which are never recycled; the engine aborts its own through a round.
func (op *Op) Abort(err error) {
	op.p.mu.Lock()
	op.abortLocked(err)
}

// abortLocked is Abort with p.mu held; it releases p.mu.
func (op *Op) abortLocked(err error) {
	p := op.p
	if op.done {
		p.mu.Unlock()
		return
	}
	op.done = true
	p.removeLocked(op)
	p.mu.Unlock()
	op.finish(nil, err)
}

// finish runs the completion exactly once (the caller has already claimed
// op.done under p.mu) and frees the slot, unless the operation keeps it for
// its next round. After the completion returns, every acknowledgement the
// round collected — including partial collections on abort and inbox-closed
// paths — returns to the pools: the completion is the last code to see the
// acks, and the protocols clone whatever they retain (rule 3) before it
// returns. Only then does an engine Op go back to the free list, under a new
// generation.
func (op *Op) finish(acks []Ack, err error) {
	keepSlot := op.handler.complete(acks, err)
	for i := range op.acks {
		op.acks[i].release()
	}
	op.acks = op.acks[:0]
	p := op.p
	if !keepSlot {
		p.release()
	}
	if op.fn.done != nil {
		return
	}
	p.mu.Lock()
	op.gen++
	op.handler = nil
	p.free = append(p.free, op)
	p.mu.Unlock()
}

// removeLocked drops the operation from the pending set. Callers hold p.mu.
func (p *Pipeline) removeLocked(op *Op) {
	for i, o := range p.ops {
		if o == op {
			last := len(p.ops) - 1
			p.ops[i] = p.ops[last]
			p.ops[last] = nil
			p.ops = p.ops[:last]
			return
		}
	}
}

// Deliver implements transport.Sink: it routes one delivered message — a
// single acknowledgement or a batch envelope of them — to the operations it
// satisfies, then releases the message's reference (accepted acks took their
// own in handlePayload). Decoding reuses the pipeline's scratch message, so
// traffic that matches no operation costs no allocations; the scratch sheds
// its views of the payload before Deliver returns, so an idle handle pins
// nothing it decoded.
func (p *Pipeline) Deliver(m transport.Message) {
	if wire.IsBatch(m.Payload) {
		_ = wire.ForEachInBatch(m.Payload, func(sub []byte) error {
			p.handlePayload(m.From, sub, m.Arena)
			return nil
		})
	} else {
		p.handlePayload(m.From, m.Payload, m.Arena)
	}
	p.scratch.Reset()
	m.ReleaseArena()
}

// Closed implements transport.Sink: the node is gone, so every pending
// operation dies with ErrInboxClosed and every later one is refused.
func (p *Pipeline) Closed() {
	p.mu.Lock()
	p.closed = true
	pending := p.ops
	p.ops = nil
	for _, op := range pending {
		op.done = true
	}
	p.mu.Unlock()
	close(p.done)
	for _, op := range pending {
		op.finish(nil, ErrInboxClosed)
	}
}

// handlePayload offers one delivered payload to every pending operation. A
// message may satisfy SEVERAL operations at once (the majority protocols'
// write filters accept any acknowledgement with ts' ≥ ts, so one ack can
// complete two pipelined writes); each accepting operation records its OWN
// pooled copy of the message — exclusive ownership is what lets finish return
// each ack to the pool without coordinating with sibling operations. The
// copies' byte fields alias the delivered payload, so each ack also takes one
// reference on its arena — the socket frame's, or the server coalescer's on
// the in-memory transport; nil only for a payload sent without one, which is
// GC-owned and may be aliased forever. Completions fire after the engine lock
// is released.
func (p *Pipeline) handlePayload(from types.ProcessID, payload []byte, arena *wire.Arena) {
	if from.Role != types.RoleServer {
		return
	}
	scratch := &p.scratch
	if wire.DecodeInto(scratch, payload) != nil {
		return
	}

	// One ack completes at most a few operations; their list lives on the
	// stack unless it outgrows the array.
	var completedBuf [4]*Op
	completed := completedBuf[:0]
	p.mu.Lock()
	for i := 0; i < len(p.ops); i++ {
		op := p.ops[i]
		if op.done || op.hasAck(from) {
			continue
		}
		if !op.handler.accept(from, scratch) {
			continue
		}
		d := wire.GetMessage()
		*d = *scratch
		if arena != nil {
			arena.Ref()
		}
		op.acks = append(op.acks, Ack{From: from, Msg: d, Arena: arena})
		if len(op.acks) >= op.need {
			op.done = true
			completed = append(completed, op)
			p.removeLocked(op)
			i-- // removeLocked swapped the last op into slot i
		}
	}
	p.mu.Unlock()

	for _, op := range completed {
		op.finish(op.acks, nil)
	}
}

// hasAck reports whether the operation already accepted an acknowledgement
// from the server. Linear scan: quorums are small.
func (op *Op) hasAck(from types.ProcessID) bool {
	for i := range op.acks {
		if op.acks[i].From == from {
			return true
		}
	}
	return false
}

// Future is the resolution of one asynchronous operation: the client engine
// resolves it when the operation's last round completes, and the caller waits
// on Done or Result. A Future tracks the round currently backing it (rebind
// moves it between a multi-round operation's rounds), so cancelling the wait
// aborts exactly that operation, and never the one a recycled Op serves next.
type Future[T any] struct {
	done chan struct{}

	mu        sync.Mutex
	op        round
	stop      func() bool // releases the bound context's AfterFunc
	cancelErr error       // sticky abort intent, applied to later rebinds
	resolved  bool

	val T
	err error
}

// newFuture returns an unresolved future.
func newFuture[T any]() *Future[T] {
	return &Future[T]{done: make(chan struct{})}
}

// bind attaches the future to its first round and arms the context: if ctx
// ends first, the CURRENT round aborts with the context's error (and the
// abort intent sticks to rounds bound later). A completion may already have
// moved the future past op — in memory the broadcast's own server runs can
// finish round one before Submit binds — and the round it moved to stays
// bound. A context that can never end (context.Background: Done is nil) is
// not armed at all — the registration allocates, and every submission on
// such a context would pay for a callback that cannot fire. Nothing can
// abort the future before bind arms it, so bind has no abort intent to honour.
func (f *Future[T]) bind(ctx context.Context, op round) {
	f.mu.Lock()
	if f.op.op == nil {
		f.op = op
	}
	if f.stop == nil && !f.resolved && ctx.Done() != nil {
		f.stop = context.AfterFunc(ctx, func() {
			f.abort(ctx.Err())
		})
	}
	f.mu.Unlock()
}

// rebind moves the future onto the operation's next round, honouring any
// abort that raced the round boundary.
func (f *Future[T]) rebind(op round) {
	f.mu.Lock()
	f.op = op
	cancelled := f.cancelErr
	f.mu.Unlock()
	if cancelled != nil {
		op.abort(cancelled)
	}
}

// abort records the cancellation intent and aborts the currently bound
// operation (whose completion resolves the future).
func (f *Future[T]) abort(err error) {
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return
	}
	if f.cancelErr == nil {
		f.cancelErr = err
	}
	op := f.op
	f.mu.Unlock()
	if op.op != nil {
		op.abort(err)
	}
}

// Resolve settles the future. Exactly one Resolve wins; later calls are
// ignored (a context abort racing a quorum completion is benign either way).
func (f *Future[T]) Resolve(val T, err error) {
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return
	}
	f.resolved = true
	f.val = val
	f.err = err
	stop := f.stop
	f.mu.Unlock()
	if stop != nil {
		stop()
	}
	close(f.done)
}

// Done closes when the future resolves.
func (f *Future[T]) Done() <-chan struct{} { return f.done }

// Result blocks until the future resolves and returns its outcome. If ctx
// ends first the backing operation is aborted — resolving the future with
// the context's error — while sibling in-flight operations on the same
// handle are untouched.
func (f *Future[T]) Result(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		f.abort(ctx.Err())
		<-f.done
		return f.val, f.err
	}
}
