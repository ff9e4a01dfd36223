package transport

// Stats is the one shape of a network's counters, on every backend: a Queue
// counts what it admits and refuses, an in-memory network or a socket node
// adds what only it sees, and the root package surfaces the sum as
// fastread.NetworkStats.
type Stats struct {
	// DeliveredMsgs counts protocol messages admitted to an inbound queue. A
	// batch frame contributes one count per message it carries.
	DeliveredMsgs int64
	// FramesDelivered counts wire frames (TCP) or datagrams (UDP) read off a
	// socket; under pipelined load many messages share one, so frames per
	// operation below 1 is the batching working. In memory every delivery is
	// a frame: a server's coalesced ack envelope is one frame carrying
	// several messages.
	FramesDelivered int64
	// SendDrops counts outbound messages discarded before leaving: the
	// destination was unknown or unreachable, a bounded outbound queue was
	// full, the payload was oversized, or the write failed.
	SendDrops int64
	// InboundDrops counts messages lost on the receiving side: refused by a
	// full socket inbound queue (1 024 messages), or dropped by in-memory
	// routing (an isolated endpoint, an unknown destination, a closed
	// network) or off a held link (DropHeld, Close).
	InboundDrops int64
	// DedupDrops counts datagrams the UDP carrier's per-sender at-most-once
	// windows rejected as duplicates or stale replays (always 0 elsewhere).
	DedupDrops int64
	// ShedDrops counts messages refused by a bounded in-memory server
	// mailbox (WithMailboxBound, Config.QueueBound; always 0 without it), so
	// in memory DeliveredMsgs + ShedDrops is every message that reached an
	// open destination queue. With client-side ErrOverloaded rejections it
	// is the exact account of where offered load beyond capacity went.
	ShedDrops int64
	// MailboxHighWater is the deepest any inbound queue has ever been,
	// restarted processes' included. An unbounded in-memory queue never
	// drops — the asynchronous model forbids blocking a sender — so
	// overload shows up here as growth: a mark far above PipelineDepth ×
	// clients was queueing, not keeping up. A bounded queue's mark stops at
	// its bound and the overflow moves to ShedDrops (in memory) or
	// InboundDrops (sockets).
	MailboxHighWater int
}

// Add accumulates o into s: counts sum, the high-water mark takes the
// maximum.
func (s *Stats) Add(o Stats) {
	s.DeliveredMsgs += o.DeliveredMsgs
	s.FramesDelivered += o.FramesDelivered
	s.SendDrops += o.SendDrops
	s.InboundDrops += o.InboundDrops
	s.DedupDrops += o.DedupDrops
	s.ShedDrops += o.ShedDrops
	s.MailboxHighWater = max(s.MailboxHighWater, o.MailboxHighWater)
}
