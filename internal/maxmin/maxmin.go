// Package maxmin implements the decentralised read optimisation sketched in
// the paper's introduction as a middle ground between the two-round ABD read
// and the fast read:
//
//	"First, the reader sends messages to all servers. Every server, on
//	receiving such a message, broadcasts its timestamp to all servers. On
//	receiving timestamps from a majority of servers, every server selects
//	the maximum timestamp, adopts the timestamp and its associated value,
//	and sends the pair to the reader. On receiving such messages from a
//	majority of servers, the reader returns the value with the minimum
//	timestamp."
//
// From the client's point of view a read is a single request/response
// exchange, but it is *not* fast in the paper's sense (Section 3.2): servers
// wait for messages from other servers before replying, so the read latency
// includes an extra server-to-server hop. The write is the ABD single-round
// write. Experiment E7 compares its latency against both the fast algorithm
// and ABD.
package maxmin

import (
	"fastread/internal/durable"
	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Errors returned by the max-min clients: the engine's, under the names this
// package's callers match.
var (
	ErrBottomWrite = protoutil.ErrBottomWrite
	ErrNotWriter   = protoutil.ErrNotWriter
	ErrNotReader   = protoutil.ErrNotReader
)

// readKey identifies one read operation within a register: which reader and
// which of its reads. (The register key itself selects the per-key state the
// readKey lives in.)
type readKey struct {
	Reader   int
	RCounter int64
}

// pendingRead tracks the gossip a server has collected for one read.
type pendingRead struct {
	gossips   map[types.ProcessID]types.TaggedValue
	requested bool
}

// readerProgress tracks which of one reader's reads this server has already
// answered. Pipelined readers keep several reads in flight, and their gossip
// rounds can complete out of submission order ACROSS servers, so a plain
// high-watermark would mark a still-live older read as done and starve it.
// Instead the server keeps an exact frontier: a watermark below which every
// read is answered, plus the set of answered rCounters above it. The set is
// bounded by the reader's pipeline depth in normal operation; maxReplyLag
// bounds it against abandoned reads (a cancelled read's rCounter never gets
// answered, which would otherwise pin the watermark forever).
type readerProgress struct {
	watermark int64 // every rCounter <= watermark has been answered
	above     map[int64]struct{}
}

// maxReplyLag bounds readerProgress.above: once a reader's unanswered gap is
// this far behind its newest answered read, the gap is presumed abandoned
// (the reader cancelled it) and the watermark is forced past it. The
// presumption is sound because client pipelines are capped well below this
// window (protoutil.MaxPipelineDepth = 512): a LIVE read can never trail
// the newest answered read by more than the pipeline depth.
const maxReplyLag = 1024

// registerState is the per-register max-min server state: the current value,
// the gossip collected for that register's in-flight reads, and the
// per-reader reply frontier. The frontier lets the server drop late gossip
// for finished reads instead of re-creating (and leaking) their bookkeeping,
// without ever classifying a live pipelined read as finished. Only value is
// durable: the gossip bookkeeping (pending/replied) is transient and never
// persisted — an in-flight read at crash time simply times out at its reader.
type registerState struct {
	value   types.TaggedValue
	pending map[readKey]*pendingRead
	replied map[int]*readerProgress // reader index → reply frontier
}

// done reports whether the identified read has already been answered.
// Callers run inside the register's Do.
func (st *registerState) done(key readKey) bool {
	p := st.replied[key.Reader]
	if p == nil {
		return false
	}
	if key.RCounter <= p.watermark {
		return true
	}
	_, ok := p.above[key.RCounter]
	return ok
}

// markReplied records that the identified read has been answered, advances
// the reader's frontier, and garbage-collects bookkeeping the frontier has
// passed. Callers run inside the register's Do.
func (st *registerState) markReplied(rkey readKey) {
	p := st.replied[rkey.Reader]
	if p == nil {
		// First contact with this reader: its counters start at a fresh
		// incarnation nonce (protoutil.StartNonce), so seed the watermark
		// maxReplyLag below it — anything older belongs to a previous
		// incarnation and can never be answered — instead of accumulating
		// the gap down to zero in the answered-set.
		wm := rkey.RCounter - maxReplyLag
		if wm < 0 {
			wm = 0
		}
		p = &readerProgress{watermark: wm, above: make(map[int64]struct{})}
		st.replied[rkey.Reader] = p
	}
	p.above[rkey.RCounter] = struct{}{}
	p.advance()
	for len(p.above) > maxReplyLag {
		// The oldest unanswered gap is presumed abandoned: force the
		// watermark onto the lowest answered rCounter and re-advance.
		lowest := int64(-1)
		for rc := range p.above {
			if lowest < 0 || rc < lowest {
				lowest = rc
			}
		}
		p.watermark = lowest
		delete(p.above, lowest)
		p.advance()
	}
	// Sweep gossip bookkeeping the frontier has passed: those reads were
	// answered here (their entries were removed on reply) or presumed
	// abandoned — either way the entries can never be answered and would
	// leak.
	for k := range st.pending {
		if k.Reader == rkey.Reader && k.RCounter <= p.watermark {
			delete(st.pending, k)
		}
	}
}

// advance folds contiguously answered rCounters into the watermark.
func (p *readerProgress) advance() {
	for {
		if _, ok := p.above[p.watermark+1]; !ok {
			return
		}
		p.watermark++
		delete(p.above, p.watermark)
	}
}

// pendingState returns (creating if necessary) the gossip state for a read.
// Callers run inside the register's Do.
func (st *registerState) pendingState(key readKey) *pendingRead {
	p, ok := st.pending[key]
	if !ok {
		p = &pendingRead{gossips: make(map[types.ProcessID]types.TaggedValue)}
		st.pending[key] = p
	}
	return p
}

// ServerConfig configures a max-min server: the uniform server description.
// The server waits for gossip from a majority of Quorum's servers (including
// itself) before answering a read; Verifier is ignored.
type ServerConfig = protoutil.ServerConfig

// Server is the max-min server. Unlike the fast register's server it is NOT
// a fast responder: on a read request it first gossips with the other
// servers. Both the stored value and the per-read gossip bookkeeping are kept
// per register key; node, executor, state map, durable log and lifecycle are
// the embedded protoutil.Shell's. A register's write, read and gossip
// messages all carry its key, and the server's executor handles them one at a
// time, so the whole gossip exchange of a read is serialised.
type Server struct {
	*protoutil.Shell[registerState]
	cfg     ServerConfig
	servers []types.ProcessID
}

// NewServer creates a max-min server bound to the given node.
func NewServer(cfg ServerConfig, node transport.Node) (*Server, error) {
	if err := cfg.Quorum.Validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, servers: protoutil.ServerIDs(cfg.Quorum.Servers)}
	sh, err := protoutil.NewShell(
		cfg,
		node,
		protoutil.Protocol[registerState]{
			Name: "maxmin",
			NewState: func() registerState {
				return registerState{
					value:   types.InitialTaggedValue(),
					pending: make(map[readKey]*pendingRead),
					replied: make(map[int]*readerProgress),
				}
			},
			Handle: s.handle,
			Apply:  func(st *registerState, r *durable.Record) { protoutil.ApplyValueRecord(&st.value, r) },
			Dump:   func(st *registerState, r *durable.Record) { protoutil.DumpValueRecord(st.value, r) },
		})
	if err != nil {
		return nil, err
	}
	s.Shell = sh
	return s, nil
}

// logAdoption appends the adoption of tv to the durable log. Callers run
// inside the register's Do, so the append is ordered with the mutation.
func (s *Server) logAdoption(sl *protoutil.Slot[registerState], key string, tv types.TaggedValue, from types.ProcessID) {
	s.Log(sl, &durable.Record{
		Kind: durable.KindDelta,
		Key:  key,
		TS:   int64(tv.TS),
		Cur:  tv.Cur,
		Prev: tv.Prev,
		From: from,
	})
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

// handle runs one message's step inside one Do on its register: a write, a
// read's start or a peer's gossip, the last two possibly completing a read.
// Replies and gossip go into the run's coalescer, which only buffers until
// the run ends, so nothing is sent while the state map's lock is held.
func (s *Server) handle(m transport.Message, req *wire.Message, out transport.Sender) {
	var step func(*protoutil.Slot[registerState], transport.Message, *wire.Message, transport.Sender)
	switch {
	case req.Op == wire.OpWrite && m.From.Role == types.RoleWriter:
		step = s.handleWrite
	case req.Op == wire.OpRead && m.From.Role == types.RoleReader:
		step = s.handleRead
	case req.Op == wire.OpGossip && m.From.Role == types.RoleServer:
		step = s.handleGossip
	default:
		return
	}
	s.Do(req.Key, func(sl *protoutil.Slot[registerState]) { step(sl, m, req, out) })
}

// handleWrite adopts a newer value and acknowledges the writer with the
// stored value, exactly as in ABD.
func (s *Server) handleWrite(sl *protoutil.Slot[registerState], m transport.Message, req *wire.Message, out transport.Sender) {
	st := &sl.State
	if req.TS > st.value.TS {
		// Retention point: the request aliases the payload.
		st.value = types.TaggedValue{TS: req.TS, Cur: req.Cur, Prev: req.Prev}
		if !sl.Adopt(m.Arena) {
			st.value = st.value.Clone()
		}
		s.logAdoption(sl, req.Key, st.value, m.From)
	}
	_ = transport.SendEncoded(out, m.From, &wire.Message{Op: wire.OpWriteAck, Key: req.Key, TS: st.value.TS, Cur: st.value.Cur, RCounter: req.RCounter})
}

// handleRead starts the gossip round for this read: broadcast the server's
// current timestamp tagged with the read's identity (and register key) to
// every server (including itself, recorded locally).
func (s *Server) handleRead(sl *protoutil.Slot[registerState], m transport.Message, req *wire.Message, out transport.Sender) {
	st := &sl.State
	rkey := readKey{Reader: m.From.Index, RCounter: req.RCounter}
	if st.done(rkey) {
		return
	}
	p := st.pendingState(rkey)
	p.requested = true
	// The entry outlives the arena the value may alias: an owned clone.
	p.gossips[s.cfg.ID] = st.value.Clone()

	gossip := &wire.Message{
		Op:       wire.OpGossip,
		Key:      req.Key,
		TS:       st.value.TS,
		Cur:      st.value.Cur,
		Prev:     st.value.Prev,
		RCounter: req.RCounter,
		Phase:    int32(m.From.Index), // identifies which reader's read this gossip belongs to
	}
	payload := wire.MustEncode(gossip)
	for _, peer := range s.servers {
		if peer == s.cfg.ID {
			continue
		}
		_ = out.Send(peer, gossip.Kind(), payload)
	}

	s.maybeReply(sl, p, req.Key, rkey, out)
}

// handleGossip records a peer server's timestamp for the identified read and
// adopts it if newer.
func (s *Server) handleGossip(sl *protoutil.Slot[registerState], m transport.Message, req *wire.Message, out transport.Sender) {
	st := &sl.State
	rkey := readKey{Reader: int(req.Phase), RCounter: req.RCounter}
	// Gossip entries outlive the frame, so the incoming value is an owned
	// clone, and adopting it pins no arena.
	incoming := types.TaggedValue{TS: req.TS, Cur: req.Cur.Clone(), Prev: req.Prev.Clone()}
	// Adopt the maximum timestamp seen while gossiping ("adopts the timestamp
	// and its associated value").
	if incoming.TS > st.value.TS {
		sl.Adopt(nil)
		st.value = incoming
		s.logAdoption(sl, req.Key, st.value, m.From)
	}
	// Gossip for a read this server already answered must not re-create the
	// read's bookkeeping: the entry would never be garbage-collected.
	if st.done(rkey) {
		return
	}
	p := st.pendingState(rkey)
	p.gossips[m.From] = incoming

	s.maybeReply(sl, p, req.Key, rkey, out)
}

// maybeReply answers the reader once the server has both received the read
// request and collected gossip from a majority of servers. p is the read's
// bookkeeping, which the caller found not done.
func (s *Server) maybeReply(sl *protoutil.Slot[registerState], p *pendingRead, key string, rkey readKey, out transport.Sender) {
	st := &sl.State
	if !p.requested || len(p.gossips) < s.cfg.Quorum.Majority() {
		return
	}
	// Select the maximum timestamp among the collected gossip and adopt it.
	// Gossip entries are owned clones, so adopting one pins no arena.
	best := st.value
	for _, tv := range p.gossips {
		if tv.TS > best.TS {
			best = tv
		}
	}
	if best.TS > st.value.TS {
		sl.Adopt(nil)
		st.value = best
		s.logAdoption(sl, key, best, s.cfg.ID)
	}
	// Garbage-collect the finished read and advance the reader's reply
	// frontier, which stops late gossip from re-creating the entry. An older
	// read still in flight (pipelined readers overlap their reads) keeps its
	// bookkeeping: only reads the contiguous frontier has passed are swept.
	delete(st.pending, rkey)
	st.markReplied(rkey)

	// The reply carries the adopted maximum.
	_ = transport.SendEncoded(out, types.Reader(rkey.Reader), &wire.Message{
		Op:       wire.OpReadAck,
		Key:      key,
		TS:       best.TS,
		Cur:      best.Cur,
		Prev:     best.Prev,
		RCounter: rkey.RCounter,
	})
}

// ClientConfig configures a max-min client (writer or reader); the signature
// fields are ignored.
type ClientConfig = protoutil.ClientConfig

// Writer is the max-min writer: the engine's single-writer client waiting for
// a majority, identical to the single-round ABD writer.
type Writer = protoutil.Writer

// NewWriter creates the max-min writer.
func NewWriter(cfg ClientConfig, node transport.Node) (*Writer, error) {
	return protoutil.NewWriter("maxmin", cfg.Quorum.Majority(), nil, cfg, node)
}

// Reader is the max-min reader: the engine's reader running a single
// request/response exchange with a majority of servers, returning the value
// with the MINIMUM timestamp among the replies (each of which is itself a
// majority-maximum). Pipelined reads are matched to their gossip rounds and
// acknowledgements by rCounter nonces (the servers' per-reader reply
// bookkeeping tolerates out-of-order completion; see registerState).
type Reader = protoutil.Reader

// NewReader creates a max-min reader. One client round-trip, but servers
// gossip among themselves before replying.
func NewReader(cfg ClientConfig, node transport.Node) (*Reader, error) {
	return protoutil.NewReader(cfg, node, protoutil.Rounds[protoutil.ReadResult]{
		Name: "maxmin read", Need: cfg.Quorum.Majority(),
		Begin: protoutil.Ask[protoutil.ReadResult](wire.OpRead, cfg.Key), Finish: minReply,
	})
}

// minReply returns the value with the minimum timestamp among the replies.
func minReply(c *protoutil.Call[protoutil.ReadResult], acks []protoutil.Ack) (bool, error) {
	min := acks[0].Msg
	for _, a := range acks[1:] {
		if a.Msg.TS < min.TS {
			min = a.Msg
		}
	}
	c.Result = protoutil.ReadResult{Value: min.Cur.Clone(), Timestamp: min.TS, RoundTrips: 1}
	return false, nil
}
