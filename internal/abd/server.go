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
	// arena, when non-nil, is the frame buffer value currently aliases:
	// adoption from an arena-backed frame retains by reference (one Arena.Ref)
	// instead of cloning, released when the next value displaces it. At most
	// one arena is pinned per register.
	arena *wire.Arena
}

// Server is the quorum server used by both the SWMR and MWMR ABD registers.
// It answers queries and reads with its current versioned value and adopts
// any strictly newer value carried by write or write-back messages. Node,
// executor, per-key state map, durable log and lifecycle are the embedded
// protoutil.Shell's.
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
// decode, one clone at the adoption retention point, ack fields aliasing the
// stored state (the key-shard worker handling this message is this key's
// sole mutator, and the ack is encoded before the worker handles its next
// message). Acknowledgements go through the executor's run-scoped coalescer,
// so a run of pipelined requests from one client is answered with ONE
// batched send.
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
			// Retention point: the request aliases the payload. An arena-backed
			// frame is retained by reference (wire's rule 4); otherwise the
			// stored value must own its bytes.
			if m.Arena != nil {
				m.Arena.Ref()
				if st.arena != nil {
					st.arena.Release()
				}
				st.arena = m.Arena
				st.value = incoming
			} else {
				if st.arena != nil {
					st.arena.Release()
					st.arena = nil
				}
				st.value = VersionedValue{
					TS:   incoming.TS,
					Rank: incoming.Rank,
					Cur:  incoming.Cur.Clone(),
					Prev: incoming.Prev.Clone(),
				}
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
