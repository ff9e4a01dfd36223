package core

import (
	"fmt"

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
	Seen      types.ProcessSet
	Counters  map[int]int64
	Mutations int64
}

// registerState is the per-register server state of Figure 2 / Figure 5: the
// stored tagged value (with its writer signature in the Byzantine variant),
// the seen set and the per-client operation counters. One server hosts many
// registers, each with fully independent state.
type registerState struct {
	value    types.TaggedValue
	valueSig []byte
	// seen is the seen set, kept as a slice (at most R+1 ≤ MaxPredicateUnion
	// members, so membership is a short scan) that acknowledgements carry
	// without materialising it per message: acks alias it under the usual
	// sole-mutator discipline — the ack is encoded before the server handles
	// its next message.
	seen     []types.ProcessID
	counters map[int]int64
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
					counters: make(map[int]int64, readers+1),
				}
			},
			Handle: s.handle,
			Apply:  applyRecord,
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

// applyRecord replays one recovered log record into register state. A
// KindState record restores a register wholesale; a KindDelta re-runs the
// exact mutation branch the live path took. Record bytes alias the replay
// buffer, so everything retained is cloned, mirroring the live path's
// retention point.
func applyRecord(st *registerState, r *durable.Record) {
	switch r.Kind {
	case durable.KindState:
		st.value = types.TaggedValue{
			TS:   types.Timestamp(r.TS),
			Cur:  types.Value(r.Cur).Clone(),
			Prev: types.Value(r.Prev).Clone(),
		}
		st.valueSig = append(st.valueSig[:0], r.Sig...)
		st.seen = append(st.seen[:0], r.Seen...)
		for _, c := range r.Counters {
			st.counters[int(c.PID)] = c.N
		}
	case durable.KindDelta:
		if types.Timestamp(r.TS) > st.value.TS {
			st.value = types.TaggedValue{
				TS:   types.Timestamp(r.TS),
				Cur:  types.Value(r.Cur).Clone(),
				Prev: types.Value(r.Prev).Clone(),
			}
			st.valueSig = append(st.valueSig[:0], r.Sig...)
			st.seen = append(st.seen[:0], r.From)
		} else if !seenHas(st.seen, r.From) {
			st.seen = append(st.seen, r.From)
		}
		st.counters[r.From.ClientPID()] = r.RCounter
	}
}

// dumpRecord fills a snapshot record with the register's durable state.
func dumpRecord(st *registerState, r *durable.Record) {
	protoutil.DumpValueRecord(st.value, r)
	r.Sig = st.valueSig
	r.Seen = st.seen
	for pid, n := range st.counters {
		r.Counters = append(r.Counters, durable.CounterEntry{PID: int32(pid), N: n})
	}
}

// snapshot deep-copies a register's state under the state map's lock.
func snapshot(sl *protoutil.Slot[registerState]) ServerState {
	st := &sl.State
	counters := make(map[int]int64, len(st.counters))
	for k, v := range st.counters {
		counters[k] = v
	}
	return ServerState{
		Value:     st.value.Clone(),
		ValueSig:  append([]byte(nil), st.valueSig...),
		Seen:      types.NewProcessSet(st.seen...),
		Counters:  counters,
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
			Seen:     types.NewProcessSet(),
			Counters: map[int]int64{},
		}
	}
	return out
}

// Timestamp returns the default register's current timestamp without the
// deep copy State performs. Wait loops (adversaries, fault injectors) poll
// servers at high frequency; copying the whole snapshot — counters map,
// value bytes, seen set — per poll showed up in write benchmarks.
func (s *Server) Timestamp() types.Timestamp { return s.TimestampOf("") }

// TimestampOf is Timestamp for a named register.
func (s *Server) TimestampOf(key string) types.Timestamp {
	var ts types.Timestamp
	s.Peek(key, func(st *registerState) { ts = st.value.TS })
	return ts
}

// handle processes one incoming message: Figure 2 / Figure 5 lines 26-35,
// applied to the register named by the message's key. Acknowledgements go
// through the executor's run-scoped coalescer, so a run of pipelined
// requests from one client is answered with ONE batched send.
//
// This is the per-message hot path. It decodes into a pooled scratch message
// whose byte fields alias the payload (zero-copy), keeps bytes only at the
// one retention point (adopting a newer value into register state, through
// Slot.Adopt), and builds the acknowledgement aliasing the stored state —
// safe because the executor's one goroutine handling this message is the
// only mutator of this key's state and the ack is encoded before it handles
// its next message.
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

	pid := m.From.ClientPID()

	// The ack's Seen will alias the register's long-lived seen slice. Set the
	// pooled message's own Seen backing array aside and hand it back before
	// the Put on every exit: the pool must never recycle the server's live
	// state as another goroutine's decode scratch, and a message stripped of
	// its array instead would make its next user allocate a new one.
	ack := wire.GetMessage()
	ownSeen := ack.Seen[:0]
	defer func() {
		ack.Seen = ownSeen
		wire.PutMessage(ack)
	}()
	ok := false
	s.Do(req.Key, func(sl *protoutil.Slot[registerState]) {
		st := &sl.State
		// Figure 2 line 26: only requests with rCounter ≥ cnt[q] are
		// processed (Lemma 4 depends on it). Pipelined clients stay
		// compatible because every provided transport delivers each link
		// FIFO — a client's requests arrive in rCounter order — and clients
		// submit in nonce order under their own mutex. (Adversarial delivery
		// jitter can reorder a link and starve a pipelined operation; such
		// operations end through their contexts, like any stalled op.)
		if req.RCounter < st.counters[pid] {
			return
		}
		if req.TS > st.value.TS {
			// Retention point: the request's fields alias the payload.
			st.value = types.TaggedValue{TS: req.TS, Cur: req.Cur, Prev: req.Prev}
			st.valueSig = req.WriterSig
			if !sl.Adopt(m.Arena) {
				st.value = st.value.Clone()
				st.valueSig = append([]byte(nil), req.WriterSig...)
			}
			st.seen = append(st.seen[:0], m.From)
		} else if !seenHas(st.seen, m.From) {
			st.seen = append(st.seen, m.From)
		}
		st.counters[pid] = req.RCounter
		// Log the mutation before the ack is even built ("atomic reads must
		// write" extends to "must log" — read requests mutate the seen set
		// and counters, so they are logged too).
		s.Log(sl, &durable.Record{
			Kind:     durable.KindDelta,
			Key:      req.Key,
			TS:       int64(req.TS),
			Cur:      req.Cur,
			Prev:     req.Prev,
			Sig:      req.WriterSig,
			From:     m.From,
			RCounter: req.RCounter,
		})

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
			Seen:      st.seen,
			RCounter:  req.RCounter,
			WriterSig: st.valueSig,
		})
		ok = true
	})
	if ok {
		_ = transport.SendEncoded(out, m.From, ack)
	}
}
