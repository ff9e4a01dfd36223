package transport

import "fastread/internal/types"

// Holding a link.
//
// The lower-bound constructions of Sections 5 and 6 build partial runs in
// which specific messages are "in transit": sent, not yet received, and
// delivered only later or never. A held link queues every message sent on
// it; Release delivers them in order at a later point of the schedule, and
// DropHeld discards them — the messages stay in transit forever, which is
// how an invocation "skips" a block of servers while remaining a legal
// prefix of some run. A link held and never released is the model's
// message delayed forever.

// Hold queues (instead of delivering) every message subsequently sent from
// `from` to `to`, until Release or DropHeld is called for the link. A
// message from or to an isolated process is dropped, never held.
func (n *InMemNetwork) Hold(from, to types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.held[link{from, to}]; !ok {
		n.held[link{from, to}] = []Message{}
	}
	n.updateSlowLocked()
}

// Release delivers (in order) all messages held on the link and stops
// holding it. A message is held only for a destination that has joined, and
// the node table never loses one, so the destination is there to take them.
func (n *InMemNetwork) Release(from, to types.ProcessID) {
	n.mu.Lock()
	l := link{from, to}
	msgs := n.held[l]
	delete(n.held, l)
	dst := (*n.nodes.Load())[to]
	n.updateSlowLocked()
	n.mu.Unlock()

	for _, msg := range msgs {
		n.deliver(dst, msg, 0)
	}
}

// DropHeld discards all messages held on the link and stops holding it. The
// dropped messages correspond to messages that remain in transit forever.
func (n *InMemNetwork) DropHeld(from, to types.ProcessID) {
	n.mu.Lock()
	l := link{from, to}
	dropped := n.held[l]
	delete(n.held, l)
	n.updateSlowLocked()
	n.mu.Unlock()
	n.drop(dropped...)
}
