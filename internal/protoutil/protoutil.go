// Package protoutil is the one place a register protocol meets the network:
// the client engine every protocol's writer and reader run on, and the server
// shell every protocol's server runs in.
//
// Client side, the unit is the paper's communication round-trip (Section
// 3.2): the client sends a request to the servers, each recipient replies
// without waiting for any other message, and the client returns after
// receiving sufficiently many replies. Client (client.go) spells that
// choreography exactly once — reserve an in-flight slot, issue the nonce and
// register for the acknowledgements before broadcasting, collect `need`
// acknowledgements from distinct servers, complete outside the pipeline's
// lock, hand the slot to the next round or free it — and a protocol supplies
// only its Rounds description: how a request is built, which acknowledgements
// it accepts, how many it needs and what a quorum means. Writer (writer.go) is
// the single-writer client all four protocols share. Because every operation
// of every protocol passes through Client, its round counter IS the paper's
// time complexity, and a retransmission timer or a stage timestamp has one
// home. Pipeline (pipeline.go) is the engine's lower half: the sink the
// transport delivers acknowledgements into, matching them to in-flight
// operations.
//
// Server side, Shell (server.go) is the same idea for the servers' pure
// (state, message) → (state', ack) steps.
package protoutil

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Errors returned by every protocol's clients.
var (
	// ErrBottomWrite indicates an attempt to write the reserved initial
	// value ⊥ (a nil Value), which Section 3.1 forbids.
	ErrBottomWrite = errors.New("register: cannot write the initial value ⊥")
	// ErrNotWriter indicates a writer client constructed on a node without
	// the writer identity.
	ErrNotWriter = errors.New("register: writer must use the writer identity")
	// ErrNotReader indicates a reader client constructed on a node without a
	// (configured) reader identity.
	ErrNotReader = errors.New("register: reader must use a reader identity")
	// ErrInboxClosed indicates the client's transport node was closed while
	// waiting for acknowledgements.
	ErrInboxClosed = errors.New("protoutil: transport inbox closed")
	// ErrOverloaded indicates the pipeline's depth semaphore stayed
	// saturated past the caller's admission budget (WithAdmissionWait):
	// the operation was rejected BEFORE consuming a slot or touching the
	// wire, so the caller can shed it immediately instead of joining an
	// unbounded queue. Returned only when an admission budget is set —
	// without one, Acquire blocks as it always has.
	ErrOverloaded = errors.New("protoutil: pipeline overloaded, admission budget exceeded")
)

// admissionKey carries the admission-wait budget through a context.
type admissionKey struct{}

// WithAdmissionWait returns a context that bounds how long a pipeline
// submission may wait for a free depth slot. If the semaphore is still full
// after d, Acquire fails fast with ErrOverloaded instead of queueing — the
// client-side half of overload control (the server-side half is the bounded
// mailbox shed policy in internal/transport). d <= 0 leaves the default
// block-until-free behaviour. The budget is read only on Acquire's slow path,
// so an unsaturated pipeline never pays for it.
func WithAdmissionWait(ctx context.Context, d time.Duration) context.Context {
	if d <= 0 {
		return ctx
	}
	return context.WithValue(ctx, admissionKey{}, d)
}

// admissionWait extracts the admission budget, or 0 when unset.
func admissionWait(ctx context.Context) time.Duration {
	d, _ := ctx.Value(admissionKey{}).(time.Duration)
	return d
}

// WireKeyFunc is the transport.Demux routing function shared by every
// multi-register client: it routes a delivered message by the register key
// carried in its payload (as an aliasing byte view — routing allocates
// nothing) and drops undecodable payloads. Keeping the single definition
// here guarantees the in-memory Store and the TCP clients route identically.
func WireKeyFunc(m transport.Message) ([]byte, bool) {
	key, err := wire.PeekKeyView(m.Payload)
	if err != nil {
		return nil, false
	}
	return key, true
}

// StartNonce resolves a client handle's initial operation counter: the
// configured value when positive, wall-clock microseconds otherwise. Servers
// remember the highest counter each client identity used (the stale-request
// guard of Figure 2 line 26 persists across that client's restarts), so a
// restarted process reusing its identity — a redeployed cmd/regclient
// reader, say — must resume ABOVE its previous incarnation's counters or
// every operation it submits is classified stale and starves. Wall-clock
// microseconds are monotone across restarts on any sanely-timed host and
// leave the int64 range ~292k years of headroom; within one incarnation the
// handle increments from here. The override exists for deterministic
// simulation, where wall-clock nonces would make every run unique; the
// simulator injects virtual-clock microseconds instead, which preserve the
// restart ordering while being identical across runs of one seed.
func StartNonce(n int64) int64 {
	if n > 0 {
		return n
	}
	return time.Now().UnixMicro()
}

// enqueue encodes the message once, into one pooled arena, and sends it to
// every listed server, appending to runs the run of every idle server it took
// (transport.SendTaking: an in-memory server without a log) and returning
// them. The caller delivers them with deliverTaken, exactly once, after
// releasing its own locks. Send errors (which only occur when the local node
// is closed) abort the broadcast; the runs taken so far are still returned.
// Every server's message carries its own reference to the arena, so in memory
// the S servers share one buffer and adopt values from it without copying
// (wire's rule 4); enqueue drops its own reference on return. The message
// itself is not retained, so its fields may alias state the caller owns.
func enqueue(node transport.Node, servers []types.ProcessID, msg *wire.Message, runs []*transport.Queue) ([]*transport.Queue, error) {
	payload, a, err := wire.EncodeArena(msg)
	if err != nil {
		return runs, fmt.Errorf("encode %s: %w", msg.Op, err)
	}
	defer a.Release()
	kind := msg.Kind()
	for _, s := range servers {
		a.Ref()
		run, err := transport.SendTaking(node, s, kind, payload, a)
		if run != nil {
			runs = append(runs, run)
		}
		if err != nil {
			return runs, fmt.Errorf("send %s to %s: %w", msg.Op, s, err)
		}
	}
	return runs, nil
}

// deliverTaken delivers the server runs an enqueue took, in the order it took
// them, on the calling goroutine.
func deliverTaken(runs []*transport.Queue) {
	for _, q := range runs {
		q.RunTaken()
	}
}

// Ack couples a decoded acknowledgement with the server that sent it.
//
// Acks are POOLED: Msg is a pooled wire.Message and Arena (when the payload
// came in a refcounted arena: a socket frame, or the server coalescer's
// buffer on the in-memory transport) holds one reference keeping the aliased
// payload alive. The engine releases both after the round's
// completion returns, which is why a Rounds.Finish must clone anything it
// retains (the codec's rule 3).
type Ack struct {
	From  types.ProcessID
	Msg   *wire.Message
	Arena *wire.Arena
}

// release returns the ack's pooled resources: the message to the message pool
// and the arena reference it held.
func (a *Ack) release() {
	if a.Msg != nil {
		wire.PutMessage(a.Msg)
		a.Msg = nil
	}
	if a.Arena != nil {
		a.Arena.Release()
		a.Arena = nil
	}
}

// AckFilter decides whether an incoming message is a valid acknowledgement
// for the in-flight operation (Pipeline.Register's closure spelling of
// Rounds.Accept). Returning false discards the message.
type AckFilter func(from types.ProcessID, msg *wire.Message) bool

// ServerIDs builds the canonical list of server identities s1..sS.
func ServerIDs(count int) []types.ProcessID {
	out := make([]types.ProcessID, count)
	for i := range out {
		out[i] = types.Server(i + 1)
	}
	return out
}

// sharedServers is s1..s64, which every client whose deployment has at most
// that many servers views instead of building its own list: a handle per key
// per client identity would otherwise repeat the same s1..sS.
var sharedServers = ServerIDs(64)

// sharedServerIDs returns s1..s`count` as a read-only slice shared by every
// caller with the same count; appending to it copies.
func sharedServerIDs(count int) []types.ProcessID {
	if count <= len(sharedServers) {
		return sharedServers[:count:count]
	}
	return ServerIDs(count)
}

// ReaderIDs builds the canonical list of reader identities r1..rR.
func ReaderIDs(count int) []types.ProcessID {
	out := make([]types.ProcessID, count)
	for i := range out {
		out[i] = types.Reader(i + 1)
	}
	return out
}

// MaxTimestamp returns the largest timestamp among the collected acks, along
// with one ack carrying it. The boolean is false for an empty slice.
func MaxTimestamp(acks []Ack) (types.Timestamp, Ack, bool) {
	if len(acks) == 0 {
		return 0, Ack{}, false
	}
	best := acks[0]
	for _, a := range acks[1:] {
		if a.Msg.TS > best.Msg.TS {
			best = a
		}
	}
	return best.Msg.TS, best, true
}
