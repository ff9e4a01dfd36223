// Client engine.
//
// Every client operation of every protocol is the same choreography around a
// different decision: reserve an in-flight slot; under the handle's mutex
// issue the nonce, build the request, register for its acknowledgements and
// only then enqueue it at every server (so no acknowledgement is delivered
// unmatched, and pipelined requests hit every link in nonce order); release
// the mutex and run the idle in-memory servers whose runs the broadcast took
// (transport.TakerRuns), which in memory is where the acknowledgements come
// from; collect `need` acknowledgements from distinct servers; run the
// protocol's decision outside the pipeline's lock; then either resolve the
// caller's future (or signal the blocking caller waiting on the operation's
// pooled Call) and free the slot, or send the operation's next round on the
// SAME slot. A serial in-memory operation thus completes on its caller's
// goroutine, inside its own Do or Submit, with no wake-up. Client is that
// choreography, written once; a protocol supplies Rounds — its request
// builder, its acceptance rule, its quorum size and what a quorum means — and
// keeps nothing about slots, lock order or futures. It sits beside Shell, the
// one server shell.
package protoutil

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fastread/internal/quorum"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// ClientConfig is the one client-side configuration shape: every protocol's
// writer and reader constructors take it (under their package's alias), and
// the driver registry hands it through unchanged.
type ClientConfig struct {
	// Quorum describes the deployment (S, t, b, R).
	Quorum quorum.Config
	// Key names the register the client operates on; the empty key is the
	// deployment's default register. Every request is stamped with the key
	// and only acknowledgements carrying it are accepted, so many per-key
	// clients can share one transport identity.
	Key string
	// Depth bounds the operations the handle keeps in flight at once through
	// its async API; non-positive means DefaultPipelineDepth. A blocking
	// operation is the depth-one case.
	Depth int
	// Nonce, when positive, fixes a reader's initial operation counter
	// instead of the wall-clock default (see StartNonce; deterministic
	// simulation injects virtual-clock microseconds so identical seeds
	// produce identical wire traffic). Writers ignore it — their counter is
	// the write timestamp, which starts at 1.
	Nonce int64
	// Byzantine selects the arbitrary-failure variant (Figure 5) where the
	// protocol has one: the writer signs every written pair with Signer, and
	// readers verify the signature with Verifier on every acknowledgement.
	// The crash-model protocols ignore all three fields.
	Byzantine bool
	// Signer holds the writer's private key; required by a Byzantine writer.
	Signer *sig.Signer
	// Verifier is the writer's public key; used by a Byzantine reader.
	Verifier sig.Verifier
}

// Rounds is what one protocol supplies to the client engine: the description
// of an operation's round-trips. Begin and Finish run under the handle's
// mutex — one at a time per handle, so they may touch the protocol client's
// own state freely — and Accept runs on the delivering goroutine, so it may read only
// the Call and immutable configuration.
type Rounds[T any] struct {
	// Name prefixes errors and trace events ("core read", "abd write", ...).
	Name string
	// Role is the identity the handle's node must carry: RoleWriter (w) or
	// RoleReader (r1, r2, ...). Zero admits any client identity — the
	// multi-writer model has no distinguished writer. Servers are never
	// clients.
	Role types.Role
	// Need is the number of distinct servers that must acknowledge each
	// round (S−t for the fast protocols, a majority for the others).
	Need int
	// Nonce is the handle's initial operation counter: StartNonce of the
	// configured value for readers, whose servers remember counters across
	// restarts; zero for handles whose counters start at 1.
	Nonce int64
	// Begin builds the operation's first request into c.Req from c.Arg and
	// the client's state, drawing its nonce from c.NextNonce. An error
	// abandons the operation before it touches the wire.
	Begin func(c *Call[T]) error
	// Commit, if set, makes submission transactional: Begin then leaves the
	// client's state as it found it, and Commit applies the change — under
	// the same hold of the mutex — once the first request was broadcast. If
	// the broadcast fails Commit does not run and the nonce Begin drew is
	// taken back, as after a Begin error: a request that could not be sent
	// (an unencodable value, a closed node) leaves the handle as it was. For
	// handles whose nonce orders values — the writer's timestamp — not for
	// readers, whose servers remember every nonce they saw.
	Commit func(c *Call[T])
	// Accept adds the protocol's own conditions to the engine's acceptance
	// rule. m is already known to be the acknowledgement op of c.Req, on its
	// key, echoing its RCounter (a read's nonce; always 0 for the single
	// writer), from a server not yet counted; nil accepts every such m.
	Accept func(c *Call[T], from types.ProcessID, m *wire.Message) bool
	// Finish consumes a completed round's quorum. It either sets c.Result
	// and returns false, or builds the operation's next request into c.Req
	// and returns true. The acks are released when it returns, so it clones
	// what it keeps — but the next request may alias them: it is encoded
	// before they go. Nil means a single round with no result to compute.
	Finish func(c *Call[T], acks []Ack) (more bool, err error)
}

// Ask returns the Begin of an operation whose first round simply asks:
// (op, key, the next nonce), nothing from the client's state.
func Ask[T any](op wire.Op, key string) func(*Call[T]) error {
	return func(c *Call[T]) error {
		c.Req = wire.Message{Op: op, Key: key, RCounter: c.NextNonce()}
		return nil
	}
}

// Call is one in-flight operation's state, pooled per handle and lent to the
// protocol's Rounds functions.
type Call[T any] struct {
	// Arg is the operation's argument (the value to write; nil for reads).
	// It is the caller's slice, not a copy: only a handle whose callers block
	// until the operation resolves may use it beyond Begin — unless Begin
	// replaces it with its own copy, which is how a value travels from Begin
	// to Commit.
	Arg types.Value
	// Req is the current round's request. It is transient — encoded during
	// the broadcast, never retained — so Begin and Finish may let its byte
	// fields alias client state or the previous round's acks; the engine
	// drops those aliases after the broadcast, leaving the scalar fields
	// (Op, Key, TS, RCounter, ...) for Accept and the next Finish to read.
	Req wire.Message
	// Round counts the operation's completed rounds.
	Round int
	// Result is what the operation's future resolves with on success.
	Result T

	cl  *Client[T]
	f   *Future[T] // the async caller's future; nil for a blocking Do
	ack wire.Op    // the acknowledgement op of Req

	// A blocking Do waits on the Call itself instead of a Future: done (kept
	// across recycling, so a handle's blocking operations allocate it once)
	// receives when the operation resolves, with err beside Result. op is the
	// round currently in flight and cancelled a sticky abort for rounds sent
	// later, both guarded by the handle's mutex.
	done      chan struct{}
	err       error
	op        round
	cancelled error
}

// NextNonce issues the handle's next operation counter (a read's rCounter, a
// write's timestamp). Call it from Begin or Finish only: issuing under the
// handle's mutex, which the engine holds until the request is broadcast, is
// what makes pipelined requests reach every server in nonce order.
func (c *Call[T]) NextNonce() int64 { return c.cl.nonce.Add(1) }

// Issued returns the highest nonce the handle has issued so far. Unlike
// NextNonce it is safe from Accept.
func (c *Call[T]) Issued() int64 { return c.cl.nonce.Load() }

// Client runs one handle's operations: it owns the handle's node, server
// list, pipeline, mutex, nonce counter and round and operation counters.
// Protocol clients embed a *Client and add only their own state.
type Client[T any] struct {
	proto   Rounds[T]
	node    transport.Node
	servers []types.ProcessID
	pl      *Pipeline

	// nonce is written under mu (NextNonce) and read from the delivering
	// goroutine (Issued).
	nonce atomic.Int64

	mu    sync.Mutex
	ops   int64
	trips int64
	free  []*Call[T]
}

// NewClient builds the engine for one handle over the given node and makes it
// the node's consumer (see NewPipeline).
func NewClient[T any](cfg ClientConfig, node transport.Node, rounds Rounds[T]) (*Client[T], error) {
	if err := cfg.Quorum.Validate(); err != nil {
		return nil, err
	}
	if node == nil {
		return nil, fmt.Errorf("%s: client requires a transport node", rounds.Name)
	}
	if rounds.Need < 1 {
		return nil, fmt.Errorf("%s: a round needs at least one acknowledgement, got %d", rounds.Name, rounds.Need)
	}
	switch id := node.ID(); {
	case rounds.Role == types.RoleWriter && id != types.Writer():
		return nil, fmt.Errorf("%s: %w: got %v", rounds.Name, ErrNotWriter, id)
	case rounds.Role == types.RoleReader && (id.Role != types.RoleReader || id.Index < 1):
		return nil, fmt.Errorf("%s: %w: got %v", rounds.Name, ErrNotReader, id)
	case id.Role == types.RoleServer:
		return nil, fmt.Errorf("%s: servers cannot act as clients, got %v", rounds.Name, id)
	}
	cl := &Client[T]{
		proto:   rounds,
		node:    node,
		servers: sharedServerIDs(cfg.Quorum.Servers),
		pl:      NewPipeline(node, cfg.Depth, nil),
	}
	cl.nonce.Store(rounds.Nonce)
	return cl, nil
}

// ID returns the handle's process identity.
func (cl *Client[T]) ID() types.ProcessID { return cl.node.ID() }

// Close detaches the handle from the network: pending and later operations
// fail with ErrInboxClosed.
func (cl *Client[T]) Close() error { return cl.node.Close() }

// Stats reports the operations completed successfully and the round-trips
// completed on their behalf — the paper's time complexity, counted in the one
// place every round passes through.
func (cl *Client[T]) Stats() (ops, roundTrips int64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.ops, cl.trips
}

// Do runs one operation to completion: Submit at depth one, then wait — on the
// operation's pooled Call, so a blocking operation allocates neither a Future
// nor its channel. If ctx ends first the operation is aborted, exactly as a
// future's Result would.
func (cl *Client[T]) Do(ctx context.Context, arg types.Value) (T, error) {
	var zero T
	if err := cl.pl.Acquire(ctx); err != nil {
		return zero, fmt.Errorf("%s: %w", cl.proto.Name, err)
	}
	c, op, err := cl.start(arg, nil)
	switch {
	case c == nil:
		return zero, err
	case op.op == nil:
		// The aborted round's completion signals c and frees the slot.
		<-c.done
	default:
		select {
		case <-c.done:
		case <-ctx.Done():
			c.abort(ctx.Err())
			<-c.done
		}
		err = c.err
	}
	res := c.Result
	cl.mu.Lock()
	cl.put(c)
	cl.mu.Unlock()
	if err != nil {
		return zero, err
	}
	return res, nil
}

// Submit starts one operation and returns its future without waiting for any
// acknowledgement, keeping up to the configured depth of the handle's
// operations in flight; at depth it blocks until one completes (or fails
// with ErrOverloaded under WithAdmissionWait). The first request is on the
// wire when Submit returns, so a handle's operations reach every server in
// submission order whatever order they complete in. Cancelling ctx (or the
// ctx passed to Result) aborts only this operation.
func (cl *Client[T]) Submit(ctx context.Context, arg types.Value) (*Future[T], error) {
	if err := cl.pl.Acquire(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", cl.proto.Name, err)
	}
	f := newFuture[T]()
	_, op, err := cl.start(arg, f)
	if op.op == nil {
		return nil, err
	}
	f.bind(ctx, op)
	return f, nil
}

// start begins an operation on a reserved slot: it takes a Call, builds the
// first request and puts it on the wire, for f — or, with f nil, for a
// blocking caller, who owns the returned Call until it puts it back (an async
// operation's Call is the engine's: it may be recycled before start returns).
// op is the round now in flight, zero if the request did not leave; err then
// says why, and the returned Call is nil unless a blocking caller must still
// wait for the aborted round to signal done.
func (cl *Client[T]) start(arg types.Value, f *Future[T]) (c *Call[T], op round, err error) {
	cl.mu.Lock()
	c = cl.get()
	c.f, c.Arg = f, arg
	if f == nil && c.done == nil {
		c.done = make(chan struct{}, 1)
	}
	issued := cl.nonce.Load()
	if err := cl.proto.Begin(c); err != nil {
		// Nothing was registered or sent: take back the nonce, the pooled
		// state and the slot.
		cl.nonce.Store(issued)
		cl.put(c)
		cl.mu.Unlock()
		cl.pl.release()
		return nil, round{}, fmt.Errorf("%s: %w", cl.proto.Name, err)
	}
	var taken [takenInline]*transport.Queue
	op, runs, err := cl.send(c, taken[:0])
	if commit := cl.proto.Commit; commit != nil {
		if err == nil {
			commit(c)
		} else {
			cl.nonce.Store(issued)
		}
	}
	cl.mu.Unlock()
	if err != nil {
		// The aborted round's completion resolves f (or signals c) and frees
		// the slot.
		op.abort(err)
		deliverTaken(runs)
		if f != nil {
			c = nil
		}
		return c, round{}, fmt.Errorf("%s: %w", cl.proto.Name, err)
	}
	// In memory this runs the idle servers, whose acks may complete the
	// operation — and recycle an async operation's c — before it returns.
	deliverTaken(runs)
	return c, op, nil
}

// takenInline is how many taken server runs a broadcast collects on its
// caller's stack; a deployment with more in-memory servers grows the list on
// the heap.
const takenInline = 32

// send registers c's current request for its acknowledgements, then
// enqueues it at every server, appending to runs the idle servers' runs it
// took (enqueue). Callers hold cl.mu across it and deliver the returned runs
// once they have released it. Enqueueing under the lock is what makes
// pipelined requests reach every server in nonce order — a server drops,
// unacknowledged, a read that arrives behind a higher rCounter — and what
// orders a completion's recycling of c after the encode that reads it: a
// completion that races the broadcast (a server another goroutine runs, or a
// Byzantine one that guessed the nonce) waits for cl.mu.
func (cl *Client[T]) send(c *Call[T], runs []*transport.Queue) (round, []*transport.Queue, error) {
	c.ack, _ = wire.AckFor(c.Req.Op)
	op := cl.pl.registerHandler(cl.proto.Need, c)
	c.op = op
	runs, err := enqueue(cl.node, cl.servers, &c.Req, runs)
	if errors.Is(err, transport.ErrClosed) {
		// The handle's node is gone: one condition, one sentinel, whether the
		// submitter or the delivering goroutine notices first.
		err = fmt.Errorf("%w: %w", ErrInboxClosed, err)
	}
	c.Req.Cur, c.Req.Prev, c.Req.WriterSig = nil, nil, nil
	return op, runs, err
}

// abort fails a blocking operation with err: the round in flight now, and any
// round it was about to send. Only the Call's blocking caller calls it.
func (c *Call[T]) abort(err error) {
	cl := c.cl
	cl.mu.Lock()
	if c.cancelled == nil {
		c.cancelled = err
	}
	op := c.op
	cl.mu.Unlock()
	op.abort(err)
}

// get takes a Call from the handle's free list. Callers hold cl.mu.
func (cl *Client[T]) get() *Call[T] {
	if n := len(cl.free); n > 0 {
		c := cl.free[n-1]
		cl.free = cl.free[:n-1]
		return c
	}
	return &Call[T]{cl: cl}
}

// put scrubs c, keeping its done channel, and returns it to the free list.
// Callers hold cl.mu.
func (cl *Client[T]) put(c *Call[T]) {
	*c = Call[T]{cl: cl, done: c.done}
	cl.free = append(cl.free, c)
}

// accept implements opHandler: the engine's part of the acceptance rule — the
// request's acknowledgement op, echoing its rCounter, on its key; cheapest
// and most selective first, since every acknowledgement is offered to every
// pending operation — then the protocol's.
func (c *Call[T]) accept(from types.ProcessID, m *wire.Message) bool {
	if m.RCounter != c.Req.RCounter || m.Op != c.ack || m.Key != c.Req.Key {
		return false
	}
	accept := c.cl.proto.Accept
	return accept == nil || accept(c, from, m)
}

// complete implements opHandler: one round of the operation assembled its
// quorum (or died with err).
func (c *Call[T]) complete(acks []Ack, err error) (keepSlot bool) {
	cl := c.cl
	cl.mu.Lock()
	var next round
	var taken [takenInline]*transport.Queue
	var runs []*transport.Queue
	if err == nil {
		cl.trips++
		c.Round++
		if finish := cl.proto.Finish; finish != nil {
			var more bool
			if more, err = finish(c, acks); err == nil && more {
				next, runs, err = cl.send(c, taken[:0])
			}
		}
	}
	f := c.f
	if next.op != nil {
		// The operation goes on (or its next broadcast failed, and aborting
		// that round ends it): either way the slot is the next round's.
		cancelled := c.cancelled
		cl.mu.Unlock()
		switch {
		case err != nil:
			next.abort(err)
		case f != nil:
			f.rebind(next)
		case cancelled != nil:
			next.abort(cancelled)
		}
		deliverTaken(runs)
		return true
	}

	var res T
	if err == nil {
		res = c.Result
		cl.ops++
	} else {
		err = fmt.Errorf("%s (%s ts=%d rc=%d): %w", cl.proto.Name, c.Req.Op, c.Req.TS, c.Req.RCounter, err)
	}
	if f == nil {
		// A blocking caller waits on c: it reads the outcome and recycles c.
		c.Result, c.err = res, err
		cl.mu.Unlock()
		c.done <- struct{}{}
		return false
	}
	cl.put(c)
	cl.mu.Unlock()
	f.Resolve(res, err)
	return false
}
