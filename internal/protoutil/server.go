// Server shell.
//
// The paper's servers are pure steps (state, message) → (state', ack): they
// never wait for another process before replying (Figures 2 and 5). Shell is
// everything around that step that does not depend on the protocol — the
// node, the executor, the per-key state map,
// the durable log with its LSN-guarded replay and snapshot framing, and the
// Start/Stop lifecycle — so a protocol server is its state struct, its
// handler and its record⇄state mapping (Protocol) and nothing else. It is
// configured by the one ServerConfig every protocol's constructor takes, and
// sits beside Client, the one client engine.
//
// Durability rule, stated once: an ack leaves a server only after the log
// commit that covers its record returned nil. The executor's run is the
// commit group — handlers stage records (Log), the run-end hook commits the
// log once (commitRun), and only then is the run's coalesced ack batch
// released. An idle server's run is one message, so a lone request still
// pays exactly one commit before its ack. A commit that fails drops the
// run's acks and every later one: the server has become a crash fault.
package protoutil

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fastread/internal/durable"
	"fastread/internal/quorum"
	"fastread/internal/shard"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// ServerConfig is the uniform server-side deployment description: the driver
// registry hands it to every protocol (driver.ServerConfig), and the majority
// protocols' constructors take it as is (abd.ServerConfig, the one for both
// abd and regular, and maxmin.ServerConfig), so a driver passes it through
// instead of re-mapping it field by field. A protocol reads the fields it
// needs and ignores the rest.
type ServerConfig struct {
	// ID is the server's process identity (must have RoleServer).
	ID types.ProcessID
	// Quorum describes the deployment (S, t, b, R). Protocols whose servers
	// never count (abd, which also serves regular) ignore it.
	Quorum quorum.Config
	// Verifier is the writer's public key, used by signature-verifying
	// protocols (fast-byz) and ignored by the crash-model ones.
	Verifier sig.Verifier
	// Durable, if non-nil, gives the server a write-ahead log in the given
	// directory (see internal/durable): mutations are logged before acks, and
	// server construction recovers whatever a previous incarnation persisted
	// there.
	Durable *durable.Options
}

// Protocol is what one register protocol supplies to the shell.
type Protocol[S any] struct {
	// Name prefixes construction errors ("core", "abd", ...).
	Name string
	// NewState builds a register's initial state the first time its key is
	// touched (by a message or by recovery).
	NewState func() S
	// Handle processes one delivered protocol message, which the shell has
	// decoded into req (malformed payloads never reach it); replies go
	// through out, the executor's run-scoped coalescer. req is pooled and
	// aliases m's payload: it is the handler's until it returns, and a value
	// it adopts goes through Slot.Adopt(m.Arena), which says whether to keep
	// the aliases or clone.
	Handle func(m transport.Message, req *wire.Message, out transport.Sender)
	// Apply replays one recovered record into a register's state: a KindState
	// record restores it wholesale, a KindDelta re-runs the mutation the live
	// path took (the shell has already skipped deltas the state reflects).
	// Record bytes alias the replay buffer, so everything retained is cloned,
	// mirroring the live path's retention point. Unused without a log.
	Apply func(st *S, r *durable.Record)
	// Dump fills r with a register's durable fields for a snapshot (Kind, LSN
	// and Key are the shell's). r may alias live state: it is encoded under
	// the state map's lock, before the next mutation.
	Dump func(st *S, r *durable.Record)
}

// ApplyValueRecord is Protocol.Apply for state that is one timestamped value
// (maxmin, regular): a KindState record restores it, a KindDelta re-runs the
// live adoption comparison. Retained bytes are cloned because the record
// aliases the replay buffer.
func ApplyValueRecord(v *types.TaggedValue, r *durable.Record) {
	if r.Kind == durable.KindState || types.Timestamp(r.TS) > v.TS {
		*v = types.TaggedValue{
			TS:   types.Timestamp(r.TS),
			Cur:  types.Value(r.Cur).Clone(),
			Prev: types.Value(r.Prev).Clone(),
		}
	}
}

// DumpValueRecord is the matching Protocol.Dump: the record aliases v.
func DumpValueRecord(v types.TaggedValue, r *durable.Record) {
	r.TS = int64(v.TS)
	r.Cur = v.Cur
	r.Prev = v.Prev
}

// Slot is one register's entry in a server's state map: the protocol's state
// plus the shell's replay guard.
type Slot[S any] struct {
	State S
	// lsn is the log sequence number of the last durable record applied to
	// this register (live append or recovery replay); deltas at or below it
	// are already reflected and must not replay. Zero when not durable.
	lsn int64
	// Mutations counts the register's state mutations. A protocol's mutation
	// site is its Log call, durable or not, so Log counts them — once, under
	// the state map's lock the handler already holds; protocols only read it.
	Mutations int64
	// arena is the frame buffer the state's adopted value aliases, nil when
	// the state owns its bytes. At most one arena is pinned per register: the
	// one carrying its newest adopted value.
	arena *wire.Arena
}

// Adopt is every server's retention point for request bytes (wire's rules 3
// and 4), called when the register adopts a new value. It takes a reference
// on a if a is non-nil, releases the arena pinned before, and pins a. True
// means the state may keep the request's aliases; false means it must store
// fresh copies, and never append into its old bytes, which may live in the
// arena just released. Adopt(nil) marks a value the state already owns.
func (sl *Slot[S]) Adopt(a *wire.Arena) bool {
	if a != nil {
		a.Ref()
	}
	if sl.arena != nil {
		sl.arena.Release()
	}
	sl.arena = a
	return a != nil
}

// Shell is the protocol-independent server. One server multiplexes every
// register of the deployment: state is kept per register key in one shard
// map, lazily instantiated on the first message that names the key.
type Shell[S any] struct {
	id     types.ProcessID
	proto  Protocol[S]
	node   transport.Node
	exec   *transport.Executor
	states *shard.Map[*Slot[S]]
	// dlog is the server's durable log; nil when persistence is off.
	dlog *durable.Log
	// logFailed latches the first failed stage or commit (see LogFailed).
	logFailed atomic.Bool

	startOnce, stopOnce sync.Once
	done                chan struct{}
}

// NewShell creates a server bound to the given transport node, recovering its
// durable state if it has any. Call Start to begin processing messages. The
// shell reads cfg's ID and Durable; Quorum and Verifier are the protocol's.
func NewShell[S any](cfg ServerConfig, node transport.Node, proto Protocol[S]) (*Shell[S], error) {
	if cfg.ID.Role != types.RoleServer || !cfg.ID.Valid() {
		return nil, fmt.Errorf("%s: server id %v is not a valid server identity", proto.Name, cfg.ID)
	}
	if node == nil {
		return nil, fmt.Errorf("%s: server %v requires a transport node", proto.Name, cfg.ID)
	}
	s := &Shell[S]{
		id:     cfg.ID,
		proto:  proto,
		node:   node,
		states: shard.NewMap(0, func(string) *Slot[S] { return &Slot[S]{State: proto.NewState()} }),
		done:   make(chan struct{}),
	}
	if cfg.Durable != nil {
		dl, err := durable.Open(*cfg.Durable, durable.Hooks{Apply: s.applyRecord, Dump: s.dumpRecords})
		if err != nil {
			return nil, fmt.Errorf("%s: server %v durable log: %w", proto.Name, cfg.ID, err)
		}
		s.dlog = dl
	}
	s.exec = transport.NewExecutor(node, nil, 0)
	if s.dlog != nil {
		s.exec.SetRunEnd(s.commitRun)
	}
	return s, nil
}

// handle is what the executor runs for every delivered message: the
// decode every protocol's handler used to open with, then the protocol's step.
func (s *Shell[S]) handle(m transport.Message, out transport.Sender) {
	req := wire.GetMessage()
	defer wire.PutMessage(req)
	if wire.DecodeInto(req, m.Payload) != nil {
		return
	}
	s.proto.Handle(m, req, out)
}

// applyRecord replays one recovered log record. The per-key LSN guard skips
// deltas a restored snapshot already reflects (see the durable package's
// replay discipline), which is what makes snapshot + tail replay idempotent.
func (s *Shell[S]) applyRecord(r *durable.Record) error {
	s.states.Do(r.Key, func(sl *Slot[S]) {
		if r.Kind == durable.KindDelta && r.LSN <= sl.lsn {
			return
		}
		s.proto.Apply(&sl.State, r)
		sl.lsn = r.LSN
	})
	return nil
}

// dumpRecords emits one KindState record per instantiated register for a
// snapshot. Each record aliases live state under the state map's lock, taken
// per register; the durable layer encodes it before emit returns.
func (s *Shell[S]) dumpRecords(emit func(*durable.Record) error) error {
	var err error
	s.states.Range(func(key string, sl *Slot[S]) {
		if err != nil {
			return
		}
		rec := durable.Record{Kind: durable.KindState, LSN: sl.lsn, Key: key}
		s.proto.Dump(&sl.State, &rec)
		err = emit(&rec)
	})
	return err
}

// Do runs fn with the key's slot under the state map's lock, instantiating
// the register first if the key is new. Handlers mutate state (and Log) here.
func (s *Shell[S]) Do(key string, fn func(*Slot[S])) { s.states.Do(key, fn) }

// Log counts one mutation of sl's register, stages it in the durable log and
// records its LSN in the slot; without a log it only counts. Handlers call it
// inside Do, after mutating and before building the ack. Nothing blocks on
// stable storage here: the record is written, and the commit that makes it
// durable runs once at the end of the executor run, before the run's acks
// are released (commitRun). r is consumed before return, so it may alias the
// request. A caller outside an executor run ends the run itself.
func (s *Shell[S]) Log(sl *Slot[S], r *durable.Record) {
	sl.Mutations++
	if s.dlog == nil {
		return
	}
	lsn, err := s.dlog.Stage(r)
	if err != nil {
		// The log fails every commit from here on, so the run's acks are
		// dropped at its end; the flag only makes LogFailed prompt.
		s.logFailed.Store(true)
	}
	sl.lsn = lsn
}

// commitRun is the executor's run-end hook on a durable server: one commit
// covering every record the run staged. An error tells the executor to drop
// the run's acks; the log then fails every later commit too, so the server
// never acks again.
func (s *Shell[S]) commitRun() error {
	err := s.dlog.Commit()
	if err != nil {
		s.logFailed.Store(true)
	}
	return err
}

// LogFailed reports whether the durable log has failed (a full or broken
// disk): from then on the server acknowledges nothing — a crash fault the
// quorum tolerates — until it is restarted on a working log.
func (s *Shell[S]) LogFailed() bool { return s.logFailed.Load() }

// Peek runs fn with the key's state if the register has been instantiated
// and reports whether it had; read-only inspection never grows the keyspace.
func (s *Shell[S]) Peek(key string, fn func(*S)) bool {
	return s.PeekSlot(key, func(sl *Slot[S]) { fn(&sl.State) })
}

// PeekSlot is Peek for callers that also want the slot's mutation count.
func (s *Shell[S]) PeekSlot(key string, fn func(*Slot[S])) bool { return s.states.Peek(key, fn) }

// Start makes the server's executor the node's consumer before it returns and
// launches one goroutine that serves the node and runs the handler (see
// transport.Executor); under a virtual clock the clock event that delivers a
// request runs the handler instead. Only the first call has an effect.
func (s *Shell[S]) Start() {
	s.startOnce.Do(func() {
		serve := s.exec.Claim(s.handle)
		go func() {
			defer close(s.done)
			serve()
		}()
	})
}

// Stop detaches the server from the network, waits for the executor to drain
// the node, then closes the durable log (a graceful close flushes and
// snapshots; under Options.SimulateCrash it models a machine crash instead).
// Stop is idempotent, returns only once the server has stopped, and is safe
// on a server that was never started.
func (s *Shell[S]) Stop() {
	s.stopOnce.Do(func() {
		// Never started: there is no executor to wait for, and a later Start
		// must not launch one over the closed node.
		s.startOnce.Do(func() { close(s.done) })
		_ = s.node.Close()
		<-s.done
		if s.dlog != nil {
			// Sticky append errors resurface here; the log's counters have
			// already reported them.
			_ = s.dlog.Close()
		}
	})
}

// ID returns the server's process identity.
func (s *Shell[S]) ID() types.ProcessID { return s.id }

// TotalMutations sums the mutations Log has counted across every register the
// server hosts; the store-level stats aggregate it.
func (s *Shell[S]) TotalMutations() int64 {
	var total int64
	s.states.Range(func(_ string, sl *Slot[S]) { total += sl.Mutations })
	return total
}
