package abd

import (
	"fastread/internal/durable"
	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// VersionedValue is the timestamped value stored by an ABD server. For the
// single-writer register Rank is always 0; for the multi-writer register
// timestamps are ordered lexicographically by (TS, Rank).
type VersionedValue struct {
	TS   types.Timestamp
	Rank int32
	Cur  types.Value
	Prev types.Value
}

// Less reports whether v is strictly older than other in (TS, Rank) order.
func (v VersionedValue) Less(other VersionedValue) bool {
	if v.TS != other.TS {
		return v.TS < other.TS
	}
	return v.Rank < other.Rank
}

// ServerConfig configures an ABD server: the uniform server description. An
// ABD server never counts, so Quorum is ignored, and so is Verifier.
type ServerConfig = protoutil.ServerConfig

// registerState is the per-register ABD server state: the highest versioned
// value adopted so far.
type registerState struct {
	value VersionedValue
}

// Server is the quorum server of every register in this package: the SWMR
// and MWMR ABD registers and the regular register. It answers queries and
// reads with its current versioned value and adopts any strictly newer value
// carried by write or write-back messages. A regular client sends only the
// writer's writes and the readers' reads, at rank 0. Node, executor, per-key
// state map, durable log and lifecycle are the embedded protoutil.Shell's.
type Server struct {
	*protoutil.Shell[registerState]
}

// NewServer creates an ABD server bound to the given node. Call Start to
// begin processing messages.
func NewServer(cfg ServerConfig, node transport.Node) (*Server, error) {
	s := &Server{}
	sh, err := protoutil.NewShell(
		cfg,
		node,
		protoutil.Protocol[registerState]{
			Name:     "abd",
			NewState: func() registerState { return registerState{} },
			Handle:   s.handle,
			Apply:    apply,
			Dump:     dumpRecord,
		})
	if err != nil {
		return nil, err
	}
	s.Shell = sh
	return s, nil
}

// apply is the register's one mutation (protoutil.Protocol.Apply), live and
// in recovery: a delta is adopted only if strictly newer in (TS, Rank) order,
// a KindState record restores the register. The record's bytes are copied
// into the register's own buffers, at the one retention point.
func apply(sl *protoutil.Slot[registerState], r durable.Record) bool {
	v := &sl.State.value
	ts := types.Timestamp(r.TS)
	if r.Kind == durable.KindDelta && !v.Less(VersionedValue{TS: ts, Rank: r.Rank}) {
		return false
	}
	tv := types.TaggedValue{Cur: v.Cur, Prev: v.Prev}
	tv.CopyFrom(types.TaggedValue{TS: ts, Cur: r.Cur, Prev: r.Prev})
	*v = VersionedValue{TS: ts, Rank: r.Rank, Cur: tv.Cur, Prev: tv.Prev}
	return true
}

// dumpRecord fills a snapshot record with the register's durable state.
func dumpRecord(st *registerState, r *durable.Record) {
	r.TS = int64(st.value.TS)
	r.Rank = st.value.Rank
	r.Cur = st.value.Cur
	r.Prev = st.value.Prev
}

// handle processes one message on the per-message hot path: pooled zero-copy
// decode, writes and write-backs through Shell.Apply, ack fields aliasing the
// stored state (the executor handling this message is the state's sole
// mutator, and the ack is encoded before it handles its next message).
// Acknowledgements go through the executor's run-scoped coalescer, so a run of
// pipelined requests from one client is answered with ONE batched send.
func (s *Server) handle(m transport.Message, req *wire.Message, out transport.Sender) {
	if m.From.Role == types.RoleServer {
		return
	}

	var ackOp wire.Op
	switch req.Op {
	case wire.OpQuery:
		ackOp = wire.OpQueryAck
	case wire.OpRead:
		ackOp = wire.OpReadAck
	case wire.OpWrite:
		ackOp = wire.OpWriteAck
	case wire.OpWriteBack:
		ackOp = wire.OpWriteBackAck
	default:
		return
	}

	ack := wire.GetMessage()
	defer wire.PutMessage(ack)
	s.Do(req.Key, func(sl *protoutil.Slot[registerState]) {
		// Only adoptions change durable state; queries and reads are not
		// applied, so not logged.
		if req.Op == wire.OpWrite || req.Op == wire.OpWriteBack {
			s.Apply(sl, &durable.Record{
				Kind: durable.KindDelta,
				Key:  req.Key,
				TS:   int64(req.TS),
				Rank: req.WriterRank,
				Cur:  req.Cur,
				Prev: req.Prev,
				From: m.From,
			})
		}
		st := &sl.State
		ack.Fill(wire.Message{
			Op:         ackOp,
			Key:        req.Key,
			TS:         st.value.TS,
			WriterRank: st.value.Rank,
			Cur:        st.value.Cur,
			Prev:       st.value.Prev,
			RCounter:   req.RCounter,
		})
	})
	_ = transport.SendEncoded(out, m.From, ack)
}
