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
	"errors"
	"fmt"

	"fastread/internal/durable"
	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Errors returned by the regular register: the engine's client errors under
// the names this package's callers match, plus the shape check.
var (
	ErrBottomWrite = protoutil.ErrBottomWrite
	ErrNotWriter   = protoutil.ErrNotWriter
	// ErrNotRegularizable indicates a configuration with t ≥ S/2, for which
	// even a regular register cannot be implemented.
	ErrNotRegularizable = errors.New("regular: requires t < S/2")
)

// registerState is the per-register server state: the highest-timestamped
// value received for that register.
type registerState struct {
	value types.TaggedValue
}

// ServerConfig configures a regular-register server: the uniform server
// description. The server never counts, so Quorum is ignored, and so is
// Verifier.
type ServerConfig = protoutil.ServerConfig

// Server stores, per register key, the highest-timestamped value it has
// received and answers both writes and reads in a single step. Node,
// executor, per-key state map, durable log and lifecycle are the embedded
// protoutil.Shell's.
type Server struct {
	*protoutil.Shell[registerState]
}

// NewServer creates a regular-register server bound to the given node. Call
// Start to begin processing messages.
func NewServer(cfg ServerConfig, node transport.Node) (*Server, error) {
	s := &Server{}
	sh, err := protoutil.NewShell(
		cfg,
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

// handle processes one decoded message on the per-message hot path:
// Slot.Adopt at the adoption retention point, ack fields aliasing the
// stored state (the executor handling this message is the state's sole
// mutator, and the ack is encoded before it handles its next message).
func (s *Server) handle(m transport.Message, req *wire.Message, out transport.Sender) {
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
			// Retention point: the request aliases the payload.
			st.value = types.TaggedValue{TS: req.TS, Cur: req.Cur, Prev: req.Prev}
			if !sl.Adopt(m.Arena) {
				st.value = st.value.Clone()
			}
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
	_ = transport.SendEncoded(out, m.From, ack)
}

// ClientConfig configures a regular-register client (writer or reader); the
// signature fields are ignored.
type ClientConfig = protoutil.ClientConfig

// Writer is the single writer of the regular register: the engine's
// single-writer client waiting for a majority, one round-trip per write.
type Writer = protoutil.Writer

// NewWriter creates the regular-register writer.
func NewWriter(cfg ClientConfig, node transport.Node) (*Writer, error) {
	if err := regularizable(cfg); err != nil {
		return nil, err
	}
	return protoutil.NewWriter("regular", cfg.Quorum.Majority(), nil, cfg, node)
}

// regularizable rejects deployment shapes with t ≥ S/2.
func regularizable(cfg ClientConfig) error {
	if err := cfg.Quorum.Validate(); err != nil {
		return err
	}
	if !cfg.Quorum.FastRegularPossible() {
		return fmt.Errorf("%w: %v", ErrNotRegularizable, cfg.Quorum)
	}
	return nil
}

// Reader is a regular-register reader: the engine's reader running query a
// majority, return the value with the highest timestamp. One round-trip, no
// write-back, any number of readers.
type Reader = protoutil.Reader

// NewReader creates a regular-register reader.
func NewReader(cfg ClientConfig, node transport.Node) (*Reader, error) {
	if err := regularizable(cfg); err != nil {
		return nil, err
	}
	return protoutil.NewReader(cfg, node, protoutil.Rounds[protoutil.ReadResult]{
		Name: "regular read", Need: cfg.Quorum.Majority(),
		Begin: protoutil.Ask[protoutil.ReadResult](wire.OpRead, cfg.Key), Finish: maxReply,
	})
}

// maxReply returns the value with the highest timestamp among the replies.
func maxReply(c *protoutil.Call[protoutil.ReadResult], acks []protoutil.Ack) (bool, error) {
	_, best, _ := protoutil.MaxTimestamp(acks)
	c.Result = protoutil.ReadResult{Value: best.Msg.Cur.Clone(), Timestamp: best.Msg.TS, RoundTrips: 1}
	return false, nil
}
