package transport

import (
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Batch-aware delivery
// ====================
//
// A delivered transport.Message may carry either a single encoded protocol
// message or a wire.Batch envelope packing several of them (produced by the
// tcpnet per-peer flusher or a server's per-run acknowledgement Coalescer). Every consumer that interprets payloads
// — the executor, the demux, the client-side ack collectors — expands
// batches through Expand, so the code handling one message never sees the
// envelope.
//
// The per-message views of a batch ALIAS the batch buffer (wire's rule 2) and
// live as long as it does: forever for a heap buffer, until the last
// reference goes for an arena (wire's rule 4).

// Expand invokes fn once per protocol message carried by the delivered
// message: once with msg itself when the payload is a single message, once
// per aliasing sub-message when it is a batch envelope. Malformed envelopes
// are dropped silently (exactly like any other undecodable payload: the
// asynchronous model lets them be "in transit forever"). Sub-messages carry
// the envelope's arena (their payloads alias the same frame buffer); the
// caller keeps owning the envelope's single reference — fn takes its own
// Ref (RetainArena) for any sub-message it forwards to another consumer.
func Expand(msg Message, fn func(Message)) {
	if !wire.IsBatch(msg.Payload) {
		fn(msg)
		return
	}
	_ = wire.ForEachInBatch(msg.Payload, func(payload []byte) error {
		fn(Message{From: msg.From, To: msg.To, Kind: msg.Kind, Payload: payload, Arena: msg.Arena})
		return nil
	})
}

// Sender is the outbound half of a Node: what a message handler needs to
// answer its clients. Handlers running under an executor receive a run-scoped
// Coalescer instead of the raw node, so acknowledgements produced while
// draining one run of messages batch into one send per destination.
type Sender interface {
	Send(to types.ProcessID, kind string, payload []byte) error
}

// coalesced is one destination's pending traffic within a run: the first
// payload is remembered as-is (the overwhelmingly common one-ack-per-run case
// must stay identical to a direct send — no envelope, no copy), and a batch
// is materialised only when a second payload shows up.
type coalesced struct {
	kind  string
	first []byte
	// arena holds first's bytes when the coalescer encoded them into one
	// (SendMessage over an ArenaSender); nil for a caller's payload.
	arena   *wire.Arena
	batched bool
	batch   wire.Batch
}

// Coalescer buffers outbound messages during one executor run and flushes
// them as ONE send per destination: a bare payload when the run produced a
// single message for that destination, a wire.Batch envelope otherwise. It is
// owned by the executor's goroutine and is not safe for concurrent use.
//
// Ownership: payloads handed to Send pass to the Coalescer exactly as they
// would to a Node (rule 1 — senders must not reuse them). What the coalescer
// encodes itself — a lone acknowledgement, every envelope — goes into a
// pooled wire.Arena when the node is an ArenaSender (every shipped node and
// every demux route is),
// and the arena's one reference leaves with the payload: the receiver's
// release recycles it (wire's rule 4). Over any other node those buffers are
// heap slices abandoned to the transport, so receivers may alias them
// indefinitely. A run that is discarded releases its arenas.
type Coalescer struct {
	node Node
	// arenas is the node's arena send, nil when it has none.
	arenas ArenaSender

	byDest map[types.ProcessID]*coalesced
	order  []types.ProcessID
	// free recycles coalesced structs across runs (one per destination per
	// run otherwise — a steady allocation on the server ack path).
	free []*coalesced
	// lastBatch is the size of the last envelope flushed to each destination:
	// the next run that batches for it sizes its envelope from this instead
	// of append-doubling from zero.
	lastBatch map[types.ProcessID]int
}

var _ Sender = (*Coalescer)(nil)

// NewCoalescer returns an empty coalescer sending through the node.
func NewCoalescer(node Node) *Coalescer {
	c := &Coalescer{
		node:      node,
		byDest:    make(map[types.ProcessID]*coalesced),
		lastBatch: make(map[types.ProcessID]int),
	}
	c.arenas, _ = node.(ArenaSender)
	return c
}

// get pops a recycled coalesced struct, or allocates the run's first ones.
func (c *Coalescer) get() *coalesced {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return new(coalesced)
}

// Send buffers one message for the destination and always reports success:
// the only error the eventual flush can produce is "local node closed",
// which handlers ignore on direct sends too (the executor is about to shut
// down anyway), so the Coalescer swallows it at Flush rather than surfacing
// it on an unrelated later call.
func (c *Coalescer) Send(to types.ProcessID, kind string, payload []byte) error {
	e, ok := c.byDest[to]
	if !ok {
		e = c.get()
		e.kind, e.first = kind, payload
		c.byDest[to] = e
		c.order = append(c.order, to)
		return nil
	}
	if !e.batched {
		c.promote(to, e, len(payload))
	}
	c.appendPayload(&e.batch, payload)
	return nil
}

// promote turns the destination's lone payload into a batch envelope about to
// take a second message of up to next bytes. The envelope is sized once, at
// the size of the last batch flushed to the destination (runs to one client
// repeat their shape), or at exactly the two messages' size without history:
// in a pooled arena over an ArenaSender, in one heap allocation otherwise.
func (c *Coalescer) promote(to types.ProcessID, e *coalesced, next int) {
	size := max(c.lastBatch[to], wire.BatchOverhead(2)+len(e.first)+next)
	if c.arenas != nil {
		e.batch.GrowArena(size)
	} else {
		e.batch.Grow(size)
	}
	c.appendPayload(&e.batch, e.first)
	if e.arena != nil {
		// The lone payload's bytes are in the envelope now.
		e.arena.Release()
		e.arena = nil
	}
	e.first = nil
	e.kind = wire.BatchKind
	e.batched = true
}

// appendPayload adds one payload to a batch, flattening payloads that are
// themselves envelopes (a handler may legitimately forward a batch).
func (c *Coalescer) appendPayload(b *wire.Batch, payload []byte) {
	if wire.IsBatch(payload) {
		_ = b.Splice(payload)
		return
	}
	b.Append(payload)
}

// SendMessage buffers one not-yet-encoded message for the destination. The
// first message of a run is encoded standalone (a lone message must leave
// exactly as a direct send would) — into a pooled arena over an ArenaSender;
// every further message APPEND-ENCODES straight into the destination's batch,
// skipping the intermediate payload — the server hot path under pipelined
// load. The message is consumed before SendMessage returns (its fields may
// alias caller state, per the codec's aliasing discipline).
func (c *Coalescer) SendMessage(to types.ProcessID, m *wire.Message) error {
	e, ok := c.byDest[to]
	if !ok {
		payload, arena, err := c.encode(m)
		if err != nil {
			return err
		}
		e = c.get()
		e.kind, e.first, e.arena = m.Kind(), payload, arena
		c.byDest[to] = e
		c.order = append(c.order, to)
		return nil
	}
	if !e.batched {
		c.promote(to, e, wire.EncodedSize(m))
	}
	return e.batch.AppendMessage(m)
}

// encode encodes a lone message: into a pooled arena sized by the codec's
// bound when the node can send one, into an exact heap slice otherwise.
func (c *Coalescer) encode(m *wire.Message) ([]byte, *wire.Arena, error) {
	if c.arenas == nil {
		payload, err := wire.Encode(m)
		return payload, nil, err
	}
	return wire.EncodeArena(m)
}

// SendEncoded routes an acknowledgement through the coalescer's direct
// append-encoding when the sender supports it, and through a plain
// encode-then-Send otherwise. Handlers call it so they run unchanged under
// RunCoalescing (batched) and against direct nodes (unbatched).
func SendEncoded(out Sender, to types.ProcessID, m *wire.Message) error {
	if c, ok := out.(*Coalescer); ok {
		return c.SendMessage(to, m)
	}
	return out.Send(to, m.Kind(), wire.MustEncode(m))
}

// Flush sends every destination's pending traffic — one Send per destination,
// in first-touch order — and resets the coalescer for the next run.
func (c *Coalescer) Flush() { c.reset(true) }

// Discard drops the run's pending traffic unsent, releasing its arenas, and
// resets the coalescer: a server whose log could not commit the run must not
// acknowledge it.
func (c *Coalescer) Discard() { c.reset(false) }

// reset empties the coalescer, sending what it held or not.
func (c *Coalescer) reset(send bool) {
	for _, to := range c.order {
		e := c.byDest[to]
		payload, arena := e.first, e.arena
		if e.batched {
			payload = e.batch.Bytes()
			c.lastBatch[to] = len(payload)
			arena = e.batch.TakeArena()
		}
		switch {
		case !send:
			// Dropped with the rest of the run.
			if arena != nil {
				arena.Release()
			}
		case arena != nil:
			_ = c.arenas.SendArena(to, e.kind, payload, arena)
		default:
			_ = c.node.Send(to, e.kind, payload)
		}
		delete(c.byDest, to)
		// Zeroing abandons a heap envelope to the transport: never reuse it.
		*e = coalesced{}
		c.free = append(c.free, e)
	}
	c.order = c.order[:0]
}

// Pending reports the number of destinations with unflushed traffic.
func (c *Coalescer) Pending() int { return len(c.order) }
