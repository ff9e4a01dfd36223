// Package fault provides the Byzantine stand-ins: a library of concrete
// malicious server behaviours for the arbitrary-failure model of Section 6.
//
// The paper quantifies over every possible malicious behaviour; an
// implementation can only exercise specific ones. The behaviours here cover
// the attack surface the algorithm's proof actually defends against:
// forging timestamps (defeated by signatures), replaying stale state
// (defeated by the ts' ≥ ts filter and the write-back), "losing memory"
// (the behaviour used in the Figure 6 lower-bound construction), lying about
// seen sets, and equivocating (answering different readers differently).
package fault

import (
	"fmt"

	"fastread/internal/protoutil"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Behavior enumerates the malicious server behaviours available to the
// experiments.
type Behavior int

const (
	// BehaviorForgeTimestamp replies with an enormous timestamp and a value
	// the writer never wrote, signed with a key that is not the writer's.
	BehaviorForgeTimestamp Behavior = iota + 1
	// BehaviorStaleReplay always replies with the initial state (ts=0),
	// pretending no write ever happened.
	BehaviorStaleReplay
	// BehaviorMemoryLoss behaves honestly except towards one victim reader,
	// to which it replies as if it had never received any message — the
	// "loses its memory" behaviour of the Figure 6 construction.
	BehaviorMemoryLoss
	// BehaviorInflateSeen behaves honestly for timestamps but claims every
	// client is in its seen set — it sets every bit of the seen mask, so
	// clients beyond R too — trying to trick the fast-read predicate into
	// holding.
	BehaviorInflateSeen
	// BehaviorMute receives messages but never replies (distinct from a
	// crash only in that the process is still "running").
	BehaviorMute
	// BehaviorFlood answers every request with a burst of fabricated stale
	// acknowledgements followed by one honest reply. The fabrications carry
	// the right rCounter, so they reach the client's ack filters (which
	// dedup per server — a safety test of the filters), and the burst
	// itself stresses the receive path: batch expansion, the engine offering
	// every fabrication to every pending operation, mailbox growth.
	BehaviorFlood
)

// floodBurst is the number of fabricated acks BehaviorFlood sends per
// request, before the honest reply.
const floodBurst = 8

// String names the behaviour.
func (b Behavior) String() string {
	switch b {
	case BehaviorForgeTimestamp:
		return "forge-timestamp"
	case BehaviorStaleReplay:
		return "stale-replay"
	case BehaviorMemoryLoss:
		return "memory-loss"
	case BehaviorInflateSeen:
		return "inflate-seen"
	case BehaviorMute:
		return "mute"
	case BehaviorFlood:
		return "flood"
	default:
		return "unknown"
	}
}

// ByzantineConfig configures one malicious server.
type ByzantineConfig struct {
	// ID is the malicious server's identity.
	ID types.ProcessID
	// Behavior selects what the server does.
	Behavior Behavior
	// Victim is the reader targeted by BehaviorMemoryLoss.
	Victim types.ProcessID
	// ForgerKeys is the key pair malicious servers use to sign forgeries
	// (necessarily different from the writer's, by unforgeability). If nil,
	// forgeries carry no signature.
	ForgerKeys *sig.KeyPair
}

// byzState is one register's state on a malicious server: what an honest
// fast server would hold, which the behaviours that are honest in part
// (memory-loss, inflate-seen, flood) keep up to date and lie about. Like an
// honest server's it is per key — a timestamp, value and writer signature
// mean nothing outside their register.
type byzState struct {
	value types.TaggedValue
	sig   []byte
	seen  types.ClientMask
}

// ByzantineServer is a server-role process that deviates from the protocol
// according to its configured behaviour. It understands the message
// vocabulary of the fast register (internal/core) and replies accordingly.
// It runs in the same protoutil.Shell as the honest servers (per-key state,
// replies through the run's sender, no log), so it stands in for a protocol
// server behind the driver registry's Server interface and a Store can swap
// it into a deployment.
type ByzantineServer struct {
	*protoutil.Shell[byzState]
	cfg ByzantineConfig
}

// NewByzantineServer creates a malicious server bound to the given node.
func NewByzantineServer(cfg ByzantineConfig, node transport.Node) (*ByzantineServer, error) {
	if cfg.Behavior < BehaviorForgeTimestamp || cfg.Behavior > BehaviorFlood {
		return nil, fmt.Errorf("fault: unknown behaviour %d", cfg.Behavior)
	}
	s := &ByzantineServer{cfg: cfg}
	sh, err := protoutil.NewShell(protoutil.ServerConfig{ID: cfg.ID}, node,
		protoutil.Protocol[byzState]{
			Name: "fault",
			NewState: func() byzState {
				return byzState{value: types.InitialTaggedValue()}
			},
			Handle: s.handle,
		})
	if err != nil {
		return nil, err
	}
	s.Shell = sh
	return s, nil
}

func (s *ByzantineServer) handle(m transport.Message, req *wire.Message, out transport.Sender) {
	if req.Op != wire.OpWrite && req.Op != wire.OpRead {
		return
	}
	ackOp := wire.OpWriteAck
	if req.Op == wire.OpRead {
		ackOp = wire.OpReadAck
	}
	reply := func(ack *wire.Message) { _ = transport.SendEncoded(out, m.From, ack) }
	// amnesiac is the reply of a server that has seen nothing but the request.
	amnesiac := &wire.Message{Op: ackOp, Key: req.Key, SeenMask: types.ClientBit(m.From), RCounter: req.RCounter}

	switch s.cfg.Behavior {
	case BehaviorMute:
		// Receives, never replies.

	case BehaviorForgeTimestamp:
		forgedTS := types.Timestamp(1 << 40)
		cur := types.Value("forged-value")
		prev := types.Value("forged-prev")
		ack := &wire.Message{
			Op:       ackOp,
			Key:      req.Key,
			TS:       forgedTS,
			Cur:      cur,
			Prev:     prev,
			SeenMask: allBits,
			RCounter: req.RCounter,
		}
		if s.cfg.ForgerKeys != nil {
			ack.WriterSig = s.cfg.ForgerKeys.Signer.MustSign(forgedTS, cur, prev)
		}
		reply(ack)

	case BehaviorStaleReplay:
		reply(amnesiac)

	case BehaviorMemoryLoss:
		// Towards every other process the server behaves "as if it was not
		// faulty" (Figure 6), so it updates its state honestly even on the
		// victim's messages — but its reply to the victim claims it has seen
		// nothing.
		honest := s.adopt(m, req, ackOp)
		if m.From == s.cfg.Victim {
			reply(amnesiac)
		} else {
			reply(honest)
		}

	case BehaviorInflateSeen:
		ack := s.adopt(m, req, ackOp)
		ack.SeenMask = allBits
		reply(ack)

	case BehaviorFlood:
		for i := 0; i < floodBurst; i++ {
			reply(amnesiac)
		}
		reply(s.adopt(m, req, ackOp))
	}
}

// adopt updates the request's register exactly as an honest fast server
// would, copying an adopted value and its signature into the register's own
// buffers, and returns the honest acknowledgement. Its fields alias the
// state, which only the server's executor mutates, and it is encoded before
// the executor handles its next message.
func (s *ByzantineServer) adopt(m transport.Message, req *wire.Message, ackOp wire.Op) *wire.Message {
	var ack *wire.Message
	s.Do(req.Key, func(sl *protoutil.Slot[byzState]) {
		st := &sl.State
		if req.TS > st.value.TS {
			st.value.CopyFrom(types.TaggedValue{TS: req.TS, Cur: req.Cur, Prev: req.Prev})
			st.sig = types.CopyValue(st.sig, req.WriterSig)
			st.seen = 0
		}
		st.seen |= types.ClientBit(m.From)
		ack = &wire.Message{
			Op:        ackOp,
			Key:       req.Key,
			TS:        st.value.TS,
			Cur:       st.value.Cur,
			Prev:      st.value.Prev,
			SeenMask:  st.seen,
			RCounter:  req.RCounter,
			WriterSig: st.sig,
		}
	})
	return ack
}

// allBits is the fabricated seen set: every bit of the mask, fictitious
// clients past R included.
const allBits = ^types.ClientMask(0)
