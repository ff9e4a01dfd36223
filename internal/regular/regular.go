// Package regular implements a fast single-writer multi-reader REGULAR
// register, the comparison point of Section 8 of the paper.
//
// A regular register is weaker than an atomic one: a read that is concurrent
// with a write may return either the value being written or the previous
// value, and two concurrent reads may disagree on which (the "new/old
// inversion" that atomicity forbids). In exchange, the implementation is
// trivially fast for ANY number of readers as long as a majority of servers
// is correct (t < S/2): writes go to a majority in one round, reads query a
// majority and return the highest-timestamped value, with no write-back and
// no seen-set bookkeeping.
//
// Experiment E7 uses this register to reproduce the paper's observation that
// "fast atomic registers have exactly the same time-complexity as regular
// registers" when R is small enough, and that beyond the R < S/t − 2 bound
// the designer must choose between speed (regular) and consistency (atomic).
package regular

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fastread/internal/durable"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/stats"
	"fastread/internal/trace"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Errors returned by the regular register.
var (
	// ErrBottomWrite indicates an attempt to write the reserved value ⊥.
	ErrBottomWrite = errors.New("regular: cannot write the initial value ⊥")
	// ErrNotWriter indicates a writer constructed on a non-writer node.
	ErrNotWriter = errors.New("regular: writer must use the writer identity")
	// ErrNotReader indicates a reader constructed on a non-reader node.
	ErrNotReader = errors.New("regular: reader must use a reader identity")
	// ErrNotRegularizable indicates a configuration with t ≥ S/2, for which
	// even a regular register cannot be implemented.
	ErrNotRegularizable = errors.New("regular: requires t < S/2")
)

// registerState is the per-register server state: the highest-timestamped
// value received for that register.
type registerState struct {
	value types.TaggedValue
}

// ServerConfig configures a regular-register server.
type ServerConfig struct {
	// ID is the server's process identity.
	ID types.ProcessID
	// Workers is the number of key-shard workers executing this server's
	// messages in parallel (a register key is always handled by the same
	// worker). Zero or negative means GOMAXPROCS.
	Workers int
	// QueueBound, when positive, caps each worker's overflow queue:
	// requests beyond it are shed and counted (QueueSheds) instead of
	// queued without bound. Zero keeps the default never-drop queues.
	QueueBound int
	// Trace, if non-nil, records protocol events.
	Trace *trace.Trace
	// Durable, if non-nil, gives the server a write-ahead log: adoptions are
	// appended before the ack is sent, and NewServer recovers whatever a
	// previous incarnation persisted in the directory.
	Durable *durable.Options
}

// Server stores, per register key, the highest-timestamped value it has
// received and answers both writes and reads in a single step. Node,
// executor, per-key state map, durable log and lifecycle are the embedded
// protoutil.Shell's.
type Server struct {
	*protoutil.Shell[registerState]
	cfg ServerConfig
}

// NewServer creates a regular-register server bound to the given node. Call
// Start to begin processing messages.
func NewServer(cfg ServerConfig, node transport.Node) (*Server, error) {
	s := &Server{cfg: cfg}
	sh, err := protoutil.NewShell(
		protoutil.ShellConfig{ID: cfg.ID, Workers: cfg.Workers, QueueBound: cfg.QueueBound, Durable: cfg.Durable},
		node,
		protoutil.Protocol[registerState]{
			Name:     "regular",
			NewState: func() registerState { return registerState{value: types.InitialTaggedValue()} },
			Handle:   s.handle,
			Apply:    func(st *registerState, r *durable.Record) { protoutil.ApplyValueRecord(&st.value, r) },
			Dump:     func(st *registerState, r *durable.Record) { protoutil.DumpValueRecord(st.value, r) },
		})
	if err != nil {
		return nil, err
	}
	s.Shell = sh
	return s, nil
}

// State returns the default register's current value; use StateOf for a
// named register.
func (s *Server) State() types.TaggedValue { return s.StateOf("") }

// StateOf returns the named register's current value. An untouched register
// reports its initial state without being instantiated.
func (s *Server) StateOf(key string) types.TaggedValue {
	out := types.InitialTaggedValue()
	s.Peek(key, func(st *registerState) { out = st.value.Clone() })
	return out
}

// handle processes one message on the per-message hot path: pooled zero-copy
// decode, one clone at the adoption retention point, ack fields aliasing the
// stored state (the key-shard worker handling this message is this key's
// sole mutator, and the ack is encoded before the worker handles its next
// message).
func (s *Server) handle(m transport.Message, out transport.Sender) {
	req := wire.GetMessage()
	defer wire.PutMessage(req)
	if err := wire.DecodeInto(req, m.Payload); err != nil {
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.Record(trace.KindDrop, s.cfg.ID, m.From, "malformed: %v", err)
		}
		return
	}
	var ackOp wire.Op
	switch req.Op {
	case wire.OpWrite:
		if m.From.Role != types.RoleWriter {
			return
		}
		ackOp = wire.OpWriteAck
	case wire.OpRead:
		if m.From.Role != types.RoleReader {
			return
		}
		ackOp = wire.OpReadAck
	default:
		return
	}

	ack := wire.GetMessage()
	defer wire.PutMessage(ack)
	s.Do(req.Key, func(sl *protoutil.Slot[registerState]) {
		st := &sl.State
		if req.Op == wire.OpWrite && req.TS > st.value.TS {
			// Retention point: the stored value must own its bytes.
			st.value = types.TaggedValue{TS: req.TS, Cur: req.Cur.Clone(), Prev: req.Prev.Clone()}
			s.Log(sl, &durable.Record{
				Kind: durable.KindDelta,
				Key:  req.Key,
				TS:   int64(req.TS),
				Cur:  req.Cur,
				Prev: req.Prev,
				From: m.From,
			})
		}
		ack.Fill(wire.Message{
			Op:       ackOp,
			Key:      req.Key,
			TS:       st.value.TS,
			Cur:      st.value.Cur,
			Prev:     st.value.Prev,
			RCounter: req.RCounter,
		})
	})

	if err := transport.SendEncoded(out, m.From, ack); err != nil {
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.Record(trace.KindDrop, s.cfg.ID, m.From, "send ack: %v", err)
		}
	}
}

// Writer is the single writer of the regular register: one round-trip per
// write to a majority of servers. WriteAsync keeps up to depth writes in
// flight, applied in submission (timestamp) order.
type Writer struct {
	cfg     quorum.Config
	key     string
	tr      *trace.Trace
	node    transport.Node
	servers []types.ProcessID
	pl      *protoutil.Pipeline

	// submitted is the highest timestamp this incarnation has broadcast;
	// the ack filter caps accepted timestamps at it so a restarted writer
	// times out visibly instead of "completing" against a previous
	// incarnation's newer server state (see core.Writer.WriteAsync).
	submitted atomic.Int64

	mu     sync.Mutex
	ts     types.Timestamp
	prev   types.Value
	rounds stats.Counter
	writes int64
}

// NewWriter creates the regular-register writer for the default register.
func NewWriter(cfg quorum.Config, node transport.Node, tr *trace.Trace) (*Writer, error) {
	return NewKeyedWriter("", cfg, 0, node, tr)
}

// NewKeyedWriter creates the regular-register writer for the named register.
// depth bounds the writes kept in flight by WriteAsync (non-positive means
// protoutil.DefaultPipelineDepth).
func NewKeyedWriter(key string, cfg quorum.Config, depth int, node transport.Node, tr *trace.Trace) (*Writer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.FastRegularPossible() {
		return nil, fmt.Errorf("%w: %v", ErrNotRegularizable, cfg)
	}
	if node == nil {
		return nil, fmt.Errorf("regular: writer requires a transport node")
	}
	if node.ID() != types.Writer() {
		return nil, fmt.Errorf("%w: got %v", ErrNotWriter, node.ID())
	}
	return &Writer{
		cfg:     cfg,
		key:     key,
		tr:      tr,
		node:    node,
		servers: protoutil.ServerIDs(cfg.Servers),
		pl:      protoutil.NewPipeline(node, depth, tr),
		ts:      1,
		prev:    types.Bottom(),
	}, nil
}

// Write stores v in the register in one round-trip (WriteAsync at depth
// one).
func (w *Writer) Write(ctx context.Context, v types.Value) error {
	f, err := w.WriteAsync(ctx, v)
	if err != nil {
		return err
	}
	_, rerr := f.Result(ctx)
	return rerr
}

// WriteAsync submits one write and returns its future without waiting for
// the majority; timestamps are taken and broadcast in submission order.
func (w *Writer) WriteAsync(ctx context.Context, v types.Value) (*protoutil.Future[struct{}], error) {
	if v.IsBottom() {
		return nil, ErrBottomWrite
	}
	if err := w.pl.Acquire(ctx); err != nil {
		return nil, fmt.Errorf("regular: write: %w", err)
	}
	f := protoutil.NewFuture[struct{}]()

	w.mu.Lock()
	ts := w.ts
	// One owned copy serves as the transient request's Cur and then as the
	// remembered prev for the next submission.
	cur := v.Clone()
	req := &wire.Message{Op: wire.OpWrite, Key: w.key, TS: ts, Cur: cur, Prev: w.prev}
	w.submitted.Store(int64(ts))
	filter := func(_ types.ProcessID, m *wire.Message) bool {
		return m.Op == wire.OpWriteAck && m.Key == w.key &&
			m.TS >= ts && int64(m.TS) <= w.submitted.Load()
	}
	op := w.pl.Register(w.cfg.Majority(), filter, func(_ []protoutil.Ack, err error) {
		if err != nil {
			f.Resolve(struct{}{}, fmt.Errorf("regular: write ts=%d: %w", ts, err))
			return
		}
		w.mu.Lock()
		w.rounds.Add(1)
		w.writes++
		w.mu.Unlock()
		f.Resolve(struct{}{}, nil)
	})
	err := protoutil.Broadcast(w.node, w.servers, req, w.tr)
	if err == nil {
		w.ts = ts.Next()
		w.prev = cur
	}
	w.mu.Unlock()
	if err != nil {
		op.Abort(err)
		return nil, fmt.Errorf("regular: write ts=%d: %w", ts, err)
	}
	f.Bind(ctx, op)
	return f, nil
}

// Stats reports completed writes and total round-trips.
func (w *Writer) Stats() (writes, roundTrips int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes, w.rounds.Total()
}

// Close detaches the writer from the network.
func (w *Writer) Close() error { return w.node.Close() }

// ReadResult is what a regular read returns.
type ReadResult struct {
	Value      types.Value
	Timestamp  types.Timestamp
	RoundTrips int
}

// Reader is a regular-register reader: query a majority, return the value
// with the highest timestamp. One round-trip, no write-back. ReadAsync keeps
// up to depth reads in flight, matched to their acknowledgements by rCounter
// nonces.
type Reader struct {
	cfg     quorum.Config
	key     string
	tr      *trace.Trace
	node    transport.Node
	id      types.ProcessID
	servers []types.ProcessID
	pl      *protoutil.Pipeline

	mu       sync.Mutex
	rCounter int64
	rounds   stats.Counter
	reads    int64
}

// NewReader creates a regular-register reader for the default register. Any
// number of readers is supported.
func NewReader(cfg quorum.Config, node transport.Node, tr *trace.Trace) (*Reader, error) {
	return NewKeyedReader("", cfg, 0, node, tr)
}

// NewKeyedReader creates a regular-register reader for the named register.
// depth bounds the reads kept in flight by ReadAsync (non-positive means
// protoutil.DefaultPipelineDepth).
func NewKeyedReader(key string, cfg quorum.Config, depth int, node transport.Node, tr *trace.Trace) (*Reader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.FastRegularPossible() {
		return nil, fmt.Errorf("%w: %v", ErrNotRegularizable, cfg)
	}
	if node == nil {
		return nil, fmt.Errorf("regular: reader requires a transport node")
	}
	id := node.ID()
	if id.Role != types.RoleReader || id.Index < 1 {
		return nil, fmt.Errorf("%w: got %v", ErrNotReader, id)
	}
	return &Reader{
		cfg:      cfg,
		key:      key,
		tr:       tr,
		node:     node,
		id:       id,
		servers:  protoutil.ServerIDs(cfg.Servers),
		pl:       protoutil.NewPipeline(node, depth, tr),
		rCounter: protoutil.InitialNonce(),
	}, nil
}

// SeedNonce overrides the reader's initial operation counter (see
// protoutil.StartNonce; deterministic simulation). It must be called before
// the first read; non-positive values are ignored.
func (r *Reader) SeedNonce(n int64) {
	if n > 0 {
		r.rCounter = n
	}
}

// Read returns a regular-register value in one round-trip (ReadAsync at
// depth one).
func (r *Reader) Read(ctx context.Context) (ReadResult, error) {
	f, err := r.ReadAsync(ctx)
	if err != nil {
		return ReadResult{}, err
	}
	return f.Result(ctx)
}

// ReadAsync submits one read and returns its future without waiting for the
// majority.
func (r *Reader) ReadAsync(ctx context.Context) (*protoutil.Future[ReadResult], error) {
	if err := r.pl.Acquire(ctx); err != nil {
		return nil, fmt.Errorf("regular: read: %w", err)
	}
	f := protoutil.NewFuture[ReadResult]()

	r.mu.Lock()
	r.rCounter++
	rc := r.rCounter
	req := &wire.Message{Op: wire.OpRead, Key: r.key, RCounter: rc}
	filter := func(_ types.ProcessID, m *wire.Message) bool {
		return m.Op == wire.OpReadAck && m.Key == r.key && m.RCounter == rc
	}
	op := r.pl.Register(r.cfg.Majority(), filter, func(acks []protoutil.Ack, err error) {
		if err != nil {
			f.Resolve(ReadResult{}, fmt.Errorf("regular: read rc=%d: %w", rc, err))
			return
		}
		r.mu.Lock()
		r.rounds.Add(1)
		r.reads++
		r.mu.Unlock()
		_, best, _ := protoutil.MaxTimestamp(acks)
		f.Resolve(ReadResult{
			Value:      best.Msg.Cur.Clone(),
			Timestamp:  best.Msg.TS,
			RoundTrips: 1,
		}, nil)
	})
	err := protoutil.Broadcast(r.node, r.servers, req, r.tr)
	r.mu.Unlock()
	if err != nil {
		op.Abort(err)
		return nil, fmt.Errorf("regular: read rc=%d: %w", rc, err)
	}
	f.Bind(ctx, op)
	return f, nil
}

// Stats reports completed reads and total round-trips (equal: regular reads
// are fast).
func (r *Reader) Stats() (reads, roundTrips int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reads, r.rounds.Total()
}

// Close detaches the reader from the network.
func (r *Reader) Close() error { return r.node.Close() }
