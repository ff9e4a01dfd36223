package core

import (
	"fmt"
	"slices"

	"fastread/internal/durable"
	"fastread/internal/protoutil"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// ServerConfig configures a fast-register server process.
type ServerConfig struct {
	// ID is the server's process identity (must have RoleServer).
	ID types.ProcessID
	// Readers is R, the number of reader processes in the system. Messages
	// from readers with a higher index are ignored.
	Readers int
	// Byzantine enables the arbitrary-failure variant (Figure 5): the server
	// verifies the writer's signature on every timestamp it adopts and
	// attaches the stored signature to its replies.
	Byzantine bool
	// Verifier is the writer's public key; required when Byzantine is true.
	Verifier sig.Verifier
	// Durable, if non-nil, gives the server a write-ahead log in the given
	// directory: every state mutation is appended before the ack is sent, and
	// NewServer recovers whatever a previous incarnation persisted there.
	Durable *durable.Options
}

// ServerState is a snapshot of one register's protocol state on a server,
// exposed for tests and fault injectors. Mutations is the shell's count for
// the register (protoutil.Slot.Mutations).
type ServerState struct {
	Value     types.TaggedValue
	ValueSig  []byte
	Seen      types.ClientMask
	Counters  []int64 // by ClientPID: the writer at 0, reader ri at i
	Mutations int64
}

// registerState is the per-register server state of Figure 2 / Figure 5: the
// stored tagged value (with its writer signature in the Byzantine variant),
// the seen set and the per-client operation counters. One server hosts many
// registers, each with fully independent state.
type registerState struct {
	value    types.TaggedValue
	valueSig []byte
	// seen is the seen set as a client mask, which acks carry by value.
	seen types.ClientMask
	// counters is cnt[] of Figure 2 by ClientPID, R+1 long.
	counters []int64
}

// Server is the server-side state machine of the fast algorithms
// (Figure 2 lines 23-35, Figure 5 lines 23-35). It never waits for messages
// from other processes before replying, which is what makes the
// implementation fast. Node, executor, per-key state map, durable log and
// lifecycle are the embedded protoutil.Shell's; this file is the protocol's
// state, its handler and its record mapping.
type Server struct {
	*protoutil.Shell[registerState]
	cfg ServerConfig

	// verify memoises successful writer-signature verifications in the
	// Byzantine variant: steady-state reads re-present the same signed
	// (key, ts, cur, prev) tuple on every round-trip, so after the first
	// verification the server skips asymmetric crypto entirely. Nil when
	// the server runs the crash model.
	verify *sig.Cache
}

// NewServer creates a server bound to the given transport node. Call Start to
// begin processing messages.
func NewServer(cfg ServerConfig, node transport.Node) (*Server, error) {
	if cfg.Readers < 0 {
		return nil, fmt.Errorf("core: negative reader count %d", cfg.Readers)
	}
	s := &Server{cfg: cfg}
	readers := cfg.Readers
	sh, err := protoutil.NewShell(
		protoutil.ServerConfig{ID: cfg.ID, Durable: cfg.Durable},
		node,
		protoutil.Protocol[registerState]{
			Name: "core",
			NewState: func() registerState {
				return registerState{
					value:    types.InitialTaggedValue(),
					counters: make([]int64, readers+1),
				}
			},
			Handle: s.handle,
			Apply:  apply,
			Dump:   dumpRecord,
		})
	if err != nil {
		return nil, err
	}
	s.Shell = sh
	if cfg.Byzantine {
		s.verify = sig.NewCache(cfg.Verifier, 0)
	}
	return s, nil
}

// apply is the register's one mutation (protoutil.Protocol.Apply): Figure 2 /
// Figure 5 lines 26-33 on the live path, and the same lines again when
// recovery replays the logged delta. A KindState record restores the
// register wholesale.
func apply(sl *protoutil.Slot[registerState], r durable.Record) bool {
	st := &sl.State
	if r.Kind == durable.KindState {
		adopt(st, &r)
		st.seen = types.ClientMaskOf(r.Seen...)
		for _, c := range r.Counters {
			if c.PID >= 0 && int(c.PID) < len(st.counters) {
				st.counters[c.PID] = c.N
			}
		}
		return true
	}
	pid := r.From.ClientPID()
	if pid < 0 || pid >= len(st.counters) {
		return false
	}
	// Figure 2 line 26: only requests with rCounter ≥ cnt[q] are processed
	// (Lemma 4 depends on it). Pipelined clients stay compatible because
	// every provided transport delivers each link FIFO — a client's requests
	// arrive in rCounter order — and clients submit in nonce order under
	// their own mutex. (Adversarial delivery jitter can reorder a link and
	// starve a pipelined operation; such operations end through their
	// contexts, like any stalled op.)
	if r.RCounter < st.counters[pid] {
		return false
	}
	if types.Timestamp(r.TS) > st.value.TS {
		adopt(st, &r)
		st.seen = 0
	}
	st.seen |= types.ClientBit(r.From)
	st.counters[pid] = r.RCounter
	return true
}

// adopt stores r's signed value in the register: the retention point, where
// the record's bytes (a request's, or the replay buffer's) are copied into the
// register's own buffers.
func adopt(st *registerState, r *durable.Record) {
	st.value.CopyFrom(types.TaggedValue{TS: types.Timestamp(r.TS), Cur: r.Cur, Prev: r.Prev})
	st.valueSig = types.CopyValue(st.valueSig, r.Sig)
}

// dumpRecord fills a snapshot record with the register's durable state. The
// log keeps the seen set as a member list and only the counters that moved,
// so its format does not depend on the mask.
func dumpRecord(st *registerState, r *durable.Record) {
	protoutil.DumpValueRecord(st.value, r)
	r.Sig = st.valueSig
	r.Seen = st.seen.Members()
	for pid, n := range st.counters {
		if n != 0 {
			r.Counters = append(r.Counters, durable.CounterEntry{PID: int32(pid), N: n})
		}
	}
}

// snapshot deep-copies a register's state under the state map's lock.
func snapshot(sl *protoutil.Slot[registerState]) ServerState {
	st := &sl.State
	return ServerState{
		Value:     st.value.Clone(),
		ValueSig:  append([]byte(nil), st.valueSig...),
		Seen:      st.seen,
		Counters:  slices.Clone(st.counters),
		Mutations: sl.Mutations,
	}
}

// State returns a deep copy of the default register's current protocol
// state. Single-register deployments (and their tests and fault injectors)
// read the server through this method; use StateOf for a named register.
func (s *Server) State() ServerState { return s.StateOf("") }

// StateOf returns a deep copy of the named register's current protocol
// state. A register that has never been touched reports its initial state
// (timestamp 0, both tags ⊥) without being instantiated.
func (s *Server) StateOf(key string) ServerState {
	var out ServerState
	if !s.PeekSlot(key, func(sl *protoutil.Slot[registerState]) { out = snapshot(sl) }) {
		out = ServerState{
			Value:    types.InitialTaggedValue(),
			Counters: make([]int64, s.cfg.Readers+1),
		}
	}
	return out
}

// handle processes one incoming message: Figure 2 / Figure 5 lines 26-35,
// applied to the register named by the message's key. Acknowledgements go
// through the executor's run-scoped coalescer, so a run of pipelined
// requests from one client is answered with ONE batched send.
//
// This is the per-message hot path. It decodes into a pooled scratch message
// whose byte fields alias the payload (zero-copy), copies bytes only at the
// one retention point (adopting a newer value into the register's own
// buffers), and builds the acknowledgement aliasing the stored state — safe
// because the executor's one goroutine handling this message is the only
// mutator of this key's state and the ack is encoded before it handles its
// next message, whose adoption overwrites those buffers.
func (s *Server) handle(m transport.Message, req *wire.Message, out transport.Sender) {
	if req.Op != wire.OpWrite && req.Op != wire.OpRead {
		return
	}
	if !isLegitimateClient(m.From, s.cfg.Readers) {
		return
	}
	// Writes must come from the writer, reads from readers; a process sending
	// the wrong kind is misbehaving and is ignored.
	if req.Op == wire.OpWrite && m.From.Role != types.RoleWriter {
		return
	}
	if req.Op == wire.OpRead && m.From.Role != types.RoleReader {
		return
	}

	// In the arbitrary-failure variant, any timestamp the server might adopt
	// must carry a valid writer signature (Figure 5's receivevalid). Read
	// requests write back a previously signed timestamp; timestamp 0 needs no
	// signature. The signature covers the register key, so a value signed for
	// one register cannot be replayed into another. Verification goes through
	// the bounded verified-signature cache, so only the first sighting of a
	// signed tuple pays for asymmetric crypto.
	if s.verify != nil {
		if err := s.verify.VerifyKeyed(req.Key, req.TS, req.Cur, req.Prev, req.WriterSig); err != nil {
			return
		}
	}

	ack := wire.GetMessage()
	defer wire.PutMessage(ack)
	ok := false
	s.Do(req.Key, func(sl *protoutil.Slot[registerState]) {
		// Every request that passes the rCounter guard is applied and logged
		// before the ack is even built ("atomic reads must write" extends to
		// "must log" — read requests mutate the seen set and counters too).
		if !s.Apply(sl, &durable.Record{
			Kind:     durable.KindDelta,
			Key:      req.Key,
			TS:       int64(req.TS),
			Cur:      req.Cur,
			Prev:     req.Prev,
			Sig:      req.WriterSig,
			From:     m.From,
			RCounter: req.RCounter,
		}) {
			return
		}
		st := &sl.State

		ackOp := wire.OpWriteAck
		if req.Op == wire.OpRead {
			ackOp = wire.OpReadAck
		}
		ack.Fill(wire.Message{
			Op:        ackOp,
			Key:       req.Key,
			TS:        st.value.TS,
			Cur:       st.value.Cur,
			Prev:      st.value.Prev,
			SeenMask:  st.seen,
			RCounter:  req.RCounter,
			WriterSig: st.valueSig,
		})
		ok = true
	})
	if ok {
		_ = transport.SendEncoded(out, m.From, ack)
	}
}
