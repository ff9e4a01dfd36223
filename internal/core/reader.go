package core

import (
	"context"
	"fmt"
	"sync"

	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/sig"
	"fastread/internal/stats"
	"fastread/internal/trace"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// ReaderConfig configures a reader process ri.
type ReaderConfig struct {
	// Quorum describes the deployment (S, t, b, R).
	Quorum quorum.Config
	// Key names the register this reader operates on. The empty key is the
	// deployment's default register. Every request is stamped with the key
	// and only acknowledgements carrying it are accepted, so many per-key
	// readers can share one transport identity.
	Key string
	// Byzantine enables the arbitrary-failure variant (Figure 5): readers
	// verify the writer's signature on every acknowledgement and discard
	// replies from servers that pretend not to have seen the written-back
	// timestamp.
	Byzantine bool
	// Verifier is the writer's public key; required when Byzantine is true.
	Verifier sig.Verifier
	// Depth bounds the number of reads this reader keeps in flight at once
	// (ReadAsync); non-positive means protoutil.DefaultPipelineDepth. A
	// serial Read is a pipelined read at depth one.
	Depth int
	// Nonce, when positive, overrides the reader's initial operation
	// counter (see protoutil.StartNonce; deterministic simulation).
	Nonce int64
	// Trace, if non-nil, records protocol events.
	Trace *trace.Trace
}

// ReadResult reports what a read returned and how it decided.
type ReadResult struct {
	// Value is the value returned by the read (possibly ⊥).
	Value types.Value
	// Timestamp is the logical timestamp of the returned value.
	Timestamp types.Timestamp
	// MaxTimestamp is the highest timestamp observed during the read.
	MaxTimestamp types.Timestamp
	// PredicateHeld reports whether the seen-set predicate allowed returning
	// MaxTimestamp (when false the read returned MaxTimestamp−1).
	PredicateHeld bool
	// PredicateLevel is the witness a for which the predicate held.
	PredicateLevel int
	// RoundTrips is the number of communication round-trips used (always 1).
	RoundTrips int
}

// Reader is the reader-side of the fast algorithms (Figure 2 / Figure 5
// lines 9-22). A Reader keeps up to cfg.Depth reads in flight at once:
// ReadAsync submits a read and returns a future, and the blocking Read is
// exactly ReadAsync at depth one. Both are safe for concurrent use — every
// in-flight read is matched to its acknowledgements by its rCounter nonce.
type Reader struct {
	cfg     ReaderConfig
	node    transport.Node
	id      types.ProcessID
	servers []types.ProcessID
	pl      *protoutil.Pipeline

	// verify memoises writer-signature verifications in the Byzantine
	// variant: every ack of a steady-state read carries the same signed
	// tuple, so only its first sighting pays for asymmetric crypto. Nil in
	// the crash model.
	verify *sig.Cache

	mu       sync.Mutex
	rCounter int64
	last     types.TaggedValue // highest observed timestamp and its tags
	lastSig  []byte
	rounds   stats.Counter
	reads    int64
	fallback int64 // reads that returned maxTS−1

	// Per-read scratch, guarded by mu: completion runs one at a time per
	// reader, so the predicate kernel's buffers recycle across reads instead
	// of allocating per read.
	pred predicateScratch
}

// NewReader creates reader client ri bound to the given transport node.
func NewReader(cfg ReaderConfig, node transport.Node) (*Reader, error) {
	if err := cfg.Quorum.Validate(); err != nil {
		return nil, err
	}
	if node == nil {
		return nil, fmt.Errorf("core: reader requires a transport node")
	}
	id := node.ID()
	if id.Role != types.RoleReader || id.Index < 1 || id.Index > cfg.Quorum.Readers {
		return nil, fmt.Errorf("%w: got %v with R=%d", ErrNotReader, id, cfg.Quorum.Readers)
	}
	r := &Reader{
		cfg:      cfg,
		node:     node,
		id:       id,
		servers:  protoutil.ServerIDs(cfg.Quorum.Servers),
		pl:       protoutil.NewPipeline(node, cfg.Depth, cfg.Trace),
		last:     types.InitialTaggedValue(),
		rCounter: protoutil.StartNonce(cfg.Nonce),
	}
	if cfg.Byzantine {
		r.verify = sig.NewCache(cfg.Verifier, 0)
	}
	return r, nil
}

// ID returns the reader's process identity.
func (r *Reader) ID() types.ProcessID { return r.id }

// Read returns the current register value in a single round-trip. It is the
// depth-one degenerate case of ReadAsync: submit, then wait.
func (r *Reader) Read(ctx context.Context) (ReadResult, error) {
	f, err := r.ReadAsync(ctx)
	if err != nil {
		return ReadResult{}, err
	}
	return f.Result(ctx)
}

// readOp is the pooled per-operation state of one in-flight read: the
// acceptance predicate's inputs, the future to resolve, and the request
// message itself. It implements protoutil.OpHandler, so registering a read
// costs one pool fetch instead of two closure allocations plus a heap
// request; Complete returns it to the pool after resolving the future.
type readOp struct {
	r           *Reader
	rc          int64
	writeBackTS types.Timestamp
	f           *protoutil.Future[ReadResult]
	req         wire.Message
}

var readOpPool = sync.Pool{New: func() any { return new(readOp) }}

// Accept implements the Figure 2 / Figure 5 line 15 acknowledgement check
// (see the ackFilter doc); it runs under the pipeline mutex.
func (ro *readOp) Accept(from types.ProcessID, m *wire.Message) bool {
	r := ro.r
	if m.Op != wire.OpReadAck || m.Key != r.cfg.Key || m.RCounter != ro.rc {
		return false
	}
	if !r.cfg.Byzantine {
		return true
	}
	// Figure 5 line 15: accept only valid acknowledgements with ts' ≥ ts and
	// ri ∈ seen'. Anything else is necessarily from a malicious server.
	if m.TS < ro.writeBackTS {
		return false
	}
	if !seenHas(m.Seen, r.id) {
		return false
	}
	return r.verify.VerifyKeyed(r.cfg.Key, m.TS, m.Cur, m.Prev, m.WriterSig) == nil
}

// Complete resolves the read's future and recycles the operation state. The
// acks are released by the engine when this returns; finishRead clones
// everything it retains.
func (ro *readOp) Complete(acks []protoutil.Ack, err error) {
	r, rc, f := ro.r, ro.rc, ro.f
	var res ReadResult
	if err != nil {
		err = fmt.Errorf("core: read rc=%d: %w", rc, err)
	} else {
		res, err = r.finishRead(rc, acks)
	}
	// Recycle ONLY after taking r.mu: the submitting goroutine encodes
	// ro.req during its broadcast while holding r.mu, and a (Byzantine)
	// server that guessed the operation's nonce could otherwise complete the
	// operation while that encode is still reading the request. Taking the
	// mutex orders the recycle after the broadcast.
	r.mu.Lock()
	*ro = readOp{}
	readOpPool.Put(ro)
	r.mu.Unlock()
	f.Resolve(res, err)
}

// ReadAsync submits one read operation and returns its future without
// waiting for the quorum, keeping up to cfg.Depth reads of this handle in
// flight. Each in-flight read is an independent state machine keyed by its
// rCounter nonce; cancelling ctx (or the ctx passed to Result) aborts only
// this read. At depth the call blocks until an in-flight read completes.
func (r *Reader) ReadAsync(ctx context.Context) (*protoutil.Future[ReadResult], error) {
	if err := r.pl.Acquire(ctx); err != nil {
		return nil, fmt.Errorf("core: read: %w", err)
	}
	f := protoutil.NewFuture[ReadResult]()

	r.mu.Lock()
	// Figure 2 line 13: rCounter ← rCounter+1; ts ← maxTS. The read request
	// writes back the highest timestamp the reader has observed, together
	// with its value tags (and the writer's signature in the
	// arbitrary-failure variant) so servers can adopt it. The request is
	// transient — encoded during the broadcast, still under r.mu, never
	// retained — so its fields alias the reader's own state without cloning.
	r.rCounter++
	rc := r.rCounter
	writeBack := r.last
	ro := readOpPool.Get().(*readOp)
	ro.r, ro.rc, ro.writeBackTS, ro.f = r, rc, writeBack.TS, f
	ro.req = wire.Message{
		Op:        wire.OpRead,
		Key:       r.cfg.Key,
		TS:        writeBack.TS,
		Cur:       writeBack.Cur,
		Prev:      writeBack.Prev,
		RCounter:  rc,
		WriterSig: r.lastSig,
	}

	if r.cfg.Trace.Enabled() {
		r.cfg.Trace.Record(trace.KindInvoke, r.id, types.ProcessID{}, "read(key=%q) rc=%d writeback ts=%d", r.cfg.Key, rc, writeBack.TS)
	}

	need := r.cfg.Quorum.AckQuorum()
	op := r.pl.RegisterHandler(need, ro)
	err := protoutil.Broadcast(r.node, r.servers, &ro.req, r.cfg.Trace)
	r.mu.Unlock()
	if err != nil {
		op.Abort(err)
		return nil, fmt.Errorf("core: read rc=%d: %w", rc, err)
	}
	f.Bind(ctx, op)
	return f, nil
}

// finishRead turns a completed quorum into the read's result: Figure 2
// lines 16-22, run from the engine's completion callback.
func (r *Reader) finishRead(rc int64, acks []protoutil.Ack) (ReadResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds.Add(1)
	r.reads++

	// Figure 2 lines 16-19: find maxTS and evaluate the predicate over the
	// seen sets of the messages carrying it.
	maxTS, first, _ := protoutil.MaxTimestamp(acks)
	r.pred.reset(r.cfg.Quorum.Readers)
	for _, a := range acks {
		if a.Msg.TS == maxTS {
			r.pred.addSeen(a.Msg.Seen)
		}
	}
	level, _, _, err := r.pred.decide(r.cfg.Quorum)
	if err != nil {
		return ReadResult{}, fmt.Errorf("core: read rc=%d: evaluate predicate: %w", rc, err)
	}

	// Remember the highest observed timestamp (and its tags) for later
	// reads' write-backs, regardless of what this read returns. Pipelined
	// reads complete in any order, so only a strictly newer observation is
	// adopted — a slow sibling must not roll the write-back window back.
	// This is a retention point: the ack's fields alias the delivered
	// payload, so the reader clones what it keeps (reusing its signature
	// buffer).
	tagged := first.Msg.Tagged()
	if tagged.TS > r.last.TS {
		r.last = tagged.Clone()
		r.lastSig = append(r.lastSig[:0], first.Msg.WriterSig...)
	}

	result := ReadResult{
		MaxTimestamp:   maxTS,
		PredicateHeld:  level != 0,
		PredicateLevel: level,
		RoundTrips:     1,
	}
	if result.PredicateHeld {
		result.Timestamp = maxTS
		result.Value = tagged.Cur.Clone()
	} else {
		result.Timestamp = maxTS.Prev()
		result.Value = tagged.Prev.Clone()
		r.fallback++
	}
	if r.cfg.Trace.Enabled() {
		r.cfg.Trace.Record(trace.KindReturn, r.id, types.ProcessID{},
			"read rc=%d -> ts=%d (maxTS=%d predicate=%v a=%d)", rc, result.Timestamp, maxTS, result.PredicateHeld, level)
	}
	return result, nil
}

// seenHas reports whether the seen slice contains the process, without
// building the intermediate set SeenSet allocates; ack filters run on every
// delivered message.
func seenHas(seen []types.ProcessID, id types.ProcessID) bool {
	for _, p := range seen {
		if p == id {
			return true
		}
	}
	return false
}

// Stats reports the number of completed reads, the total round-trips they
// used (always equal for this fast implementation) and how many reads
// returned maxTS−1 because the predicate did not hold.
func (r *Reader) Stats() (reads, roundTrips, fallbacks int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reads, r.rounds.Total(), r.fallback
}

// LastObserved returns the highest timestamp the reader has observed so far.
func (r *Reader) LastObserved() types.Timestamp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last.TS
}

// Close detaches the reader from the network.
func (r *Reader) Close() error { return r.node.Close() }
