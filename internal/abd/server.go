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
			Apply:    applyRecord,
			Dump:     dumpRecord,
		})
	if err != nil {
		return nil, err
	}
	s.Shell = sh
	return s, nil
}

// applyRecord replays one recovered log record. Deltas re-run the adoption
// comparison the live path used ((TS, Rank) order). Record bytes alias the
// replay buffer and are cloned at the retention point.
func applyRecord(st *registerState, r *durable.Record) {
	incoming := VersionedValue{TS: types.Timestamp(r.TS), Rank: r.Rank}
	if r.Kind == durable.KindState || st.value.Less(incoming) {
		incoming.Cur = types.Value(r.Cur).Clone()
		incoming.Prev = types.Value(r.Prev).Clone()
		st.value = incoming
	}
}

// dumpRecord fills a snapshot record with the register's durable state.
func dumpRecord(st *registerState, r *durable.Record) {
	r.TS = int64(st.value.TS)
	r.Rank = st.value.Rank
	r.Cur = st.value.Cur
	r.Prev = st.value.Prev
}

// handle processes one message on the per-message hot path: pooled zero-copy
// decode, Slot.Adopt at the adoption retention point, ack fields aliasing the
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

	incoming := VersionedValue{TS: req.TS, Rank: req.WriterRank, Cur: req.Cur, Prev: req.Prev}

	ack := wire.GetMessage()
	defer wire.PutMessage(ack)
	s.Do(req.Key, func(sl *protoutil.Slot[registerState]) {
		st := &sl.State
		if (req.Op == wire.OpWrite || req.Op == wire.OpWriteBack) && st.value.Less(incoming) {
			// Retention point: the request aliases the payload.
			st.value = incoming
			if !sl.Adopt(m.Arena) {
				st.value.Cur = incoming.Cur.Clone()
				st.value.Prev = incoming.Prev.Clone()
			}
			// Only adoptions change durable state; queries and reads are not
			// logged.
			s.Log(sl, &durable.Record{
				Kind: durable.KindDelta,
				Key:  req.Key,
				TS:   int64(incoming.TS),
				Rank: incoming.Rank,
				Cur:  incoming.Cur,
				Prev: incoming.Prev,
				From: m.From,
			})
		}
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
