// Package fault provides the failure machinery used by the experiments:
// crash schedules for the crash-stop model and a library of concrete
// Byzantine server behaviours for the arbitrary-failure model of Section 6.
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
	"sync"

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
	// client is in its seen set, trying to trick the fast-read predicate
	// into holding.
	BehaviorInflateSeen
	// BehaviorMute receives messages but never replies (distinct from a
	// crash only in that the process is still "running").
	BehaviorMute
	// BehaviorFlood answers every request with a burst of fabricated stale
	// acknowledgements followed by one honest reply. The fabrications carry
	// the right rCounter, so they reach the client's ack filters (which
	// dedup per server — a safety test of the filters), and the burst
	// itself stresses the receive path: demux route backlogs, mailbox
	// growth, batch expansion under load.
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
	// Workers is the number of key-shard workers executing the server's
	// messages (zero or negative means GOMAXPROCS). Malicious servers run on
	// the same executor as honest ones so experiments exercise the same
	// delivery machinery; the shared value/seen state is mutex-guarded, so
	// parallel workers stay race-free.
	Workers int
	// Behavior selects what the server does.
	Behavior Behavior
	// Readers is R (used to fabricate seen sets).
	Readers int
	// Victim is the reader targeted by BehaviorMemoryLoss.
	Victim types.ProcessID
	// ForgerKeys is the key pair malicious servers use to sign forgeries
	// (necessarily different from the writer's, by unforgeability). If nil,
	// forgeries carry no signature.
	ForgerKeys *sig.KeyPair
}

// ByzantineServer is a server-role process that deviates from the protocol
// according to its configured behaviour. It understands the message
// vocabulary of the fast register (internal/core) and replies accordingly.
// It runs on the same protoutil.Shell as the honest servers (no per-key state,
// no log), so it stands in for a protocol server behind the driver registry's
// Server interface and a Store can swap it into a deployment.
type ByzantineServer struct {
	*protoutil.Shell[struct{}]
	cfg  ByzantineConfig
	node transport.Node

	mu    sync.Mutex
	value types.TaggedValue
	sig   []byte
	seen  types.ProcessSet
}

// NewByzantineServer creates a malicious server bound to the given node.
func NewByzantineServer(cfg ByzantineConfig, node transport.Node) (*ByzantineServer, error) {
	if cfg.Behavior < BehaviorForgeTimestamp || cfg.Behavior > BehaviorFlood {
		return nil, fmt.Errorf("fault: unknown behaviour %d", cfg.Behavior)
	}
	s := &ByzantineServer{
		cfg:   cfg,
		node:  node,
		value: types.InitialTaggedValue(),
		seen:  types.NewProcessSet(),
	}
	sh, err := protoutil.NewShell(protoutil.ShellConfig{ID: cfg.ID, Workers: cfg.Workers}, node,
		protoutil.Protocol[struct{}]{
			Name:     "fault",
			NewState: func() struct{} { return struct{}{} },
			Handle:   s.handle,
		})
	if err != nil {
		return nil, err
	}
	s.Shell = sh
	return s, nil
}

// handle replies through the server's own node, one send per reply, not
// through the run-scoped coalescer: BehaviorFlood's burst is meant to arrive
// as separate deliveries (it stresses demux route backlogs and mailbox
// growth), which one coalesced batch per run would hide.
func (s *ByzantineServer) handle(m transport.Message, _ transport.Sender) {
	req, err := wire.Decode(m.Payload)
	if err != nil {
		return
	}
	if req.Op != wire.OpWrite && req.Op != wire.OpRead {
		return
	}
	ackOp := wire.OpWriteAck
	if req.Op == wire.OpRead {
		ackOp = wire.OpReadAck
	}

	switch s.cfg.Behavior {
	case BehaviorMute:
		return

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
			Seen:     allClients(s.cfg.Readers),
			RCounter: req.RCounter,
		}
		if s.cfg.ForgerKeys != nil {
			ack.WriterSig = s.cfg.ForgerKeys.Signer.MustSign(forgedTS, cur, prev)
		}
		s.reply(m.From, ack)

	case BehaviorStaleReplay:
		ack := &wire.Message{
			Op:       ackOp,
			Key:      req.Key,
			TS:       0,
			Seen:     []types.ProcessID{m.From},
			RCounter: req.RCounter,
		}
		s.reply(m.From, ack)

	case BehaviorMemoryLoss:
		if m.From == s.cfg.Victim {
			// Towards every other process the server behaves "as if it was
			// not faulty" (Figure 6), so it updates its state honestly even
			// on the victim's messages — but its reply to the victim claims
			// it has seen nothing.
			s.mu.Lock()
			s.adopt(req, m.From)
			s.mu.Unlock()
			ack := &wire.Message{
				Op:       ackOp,
				Key:      req.Key,
				TS:       0,
				Seen:     []types.ProcessID{m.From},
				RCounter: req.RCounter,
			}
			s.reply(m.From, ack)
			return
		}
		s.honestReply(m.From, req, ackOp)

	case BehaviorInflateSeen:
		s.mu.Lock()
		s.adopt(req, m.From)
		ack := &wire.Message{
			Op:        ackOp,
			Key:       req.Key,
			TS:        s.value.TS,
			Cur:       s.value.Cur.Clone(),
			Prev:      s.value.Prev.Clone(),
			Seen:      allClients(s.cfg.Readers),
			RCounter:  req.RCounter,
			WriterSig: append([]byte(nil), s.sig...),
		}
		s.mu.Unlock()
		s.reply(m.From, ack)

	case BehaviorFlood:
		for i := 0; i < floodBurst; i++ {
			ack := &wire.Message{
				Op:       ackOp,
				Key:      req.Key,
				TS:       0,
				Seen:     []types.ProcessID{m.From},
				RCounter: req.RCounter,
			}
			s.reply(m.From, ack)
		}
		s.honestReply(m.From, req, ackOp)
	}
}

// honestReply follows the honest fast-server protocol.
func (s *ByzantineServer) honestReply(from types.ProcessID, req *wire.Message, ackOp wire.Op) {
	s.mu.Lock()
	s.adopt(req, from)
	ack := &wire.Message{
		Op:        ackOp,
		Key:       req.Key,
		TS:        s.value.TS,
		Cur:       s.value.Cur.Clone(),
		Prev:      s.value.Prev.Clone(),
		Seen:      s.seen.Members(),
		RCounter:  req.RCounter,
		WriterSig: append([]byte(nil), s.sig...),
	}
	s.mu.Unlock()
	s.reply(from, ack)
}

// adopt updates the stored value exactly as an honest server would. Callers
// must hold s.mu.
func (s *ByzantineServer) adopt(req *wire.Message, from types.ProcessID) {
	if req.TS > s.value.TS {
		s.value = types.TaggedValue{TS: req.TS, Cur: req.Cur.Clone(), Prev: req.Prev.Clone()}
		s.sig = append([]byte(nil), req.WriterSig...)
		s.seen = types.NewProcessSet(from)
	} else {
		s.seen.Add(from)
	}
}

func (s *ByzantineServer) reply(to types.ProcessID, ack *wire.Message) {
	_ = s.node.Send(to, ack.Kind(), wire.MustEncode(ack))
}

// allClients fabricates a seen set containing the writer and every reader.
func allClients(readers int) []types.ProcessID {
	out := make([]types.ProcessID, 0, readers+1)
	out = append(out, types.Writer())
	for i := 1; i <= readers; i++ {
		out = append(out, types.Reader(i))
	}
	return out
}

// CrashEvent schedules the crash of one server after a given number of
// completed operations in a workload.
type CrashEvent struct {
	// Server is the process to crash.
	Server types.ProcessID
	// AfterOps is the number of completed operations (reads + writes across
	// all clients) after which the crash fires.
	AfterOps int
}

// CrashSchedule is an ordered list of crash events applied by the workload
// runner.
type CrashSchedule struct {
	mu     sync.Mutex
	events []CrashEvent
	next   int
}

// NewCrashSchedule builds a schedule from the given events (they are applied
// in the order given).
func NewCrashSchedule(events ...CrashEvent) *CrashSchedule {
	return &CrashSchedule{events: events}
}

// Pending returns the number of crash events that have not fired yet.
func (cs *CrashSchedule) Pending() int {
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.events) - cs.next
}

// Fire returns the servers whose crash events are due after completedOps
// operations, advancing the schedule.
func (cs *CrashSchedule) Fire(completedOps int) []types.ProcessID {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var due []types.ProcessID
	for cs.next < len(cs.events) && cs.events[cs.next].AfterOps <= completedOps {
		due = append(due, cs.events[cs.next].Server)
		cs.next++
	}
	return due
}
