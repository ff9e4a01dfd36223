package transport

import "fastread/internal/types"

// Hold/Release support.
//
// The lower-bound constructions of Sections 5 and 6 build partial runs in
// which specific messages are "in transit": sent, not yet received, and
// delivered only later (or never). Block/Unblock cannot express that — a
// blocked message is dropped — so the network also supports holding a link:
// messages sent while a link is held are queued, and Release delivers them
// in order at a later point of the schedule. HoldForever marks the held
// messages as permanently in transit (they are never delivered), which is
// how an invocation "skips" a block of servers while remaining a legal
// prefix of some run.

// Hold queues (instead of delivering) every message subsequently sent from
// `from` to `to`, until Release or DropHeld is called for the link.
func (n *InMemNetwork) Hold(from, to types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.held == nil {
		n.held = make(map[link][]Message)
	}
	if _, ok := n.held[link{from, to}]; !ok {
		n.held[link{from, to}] = []Message{}
	}
	n.updateSlowLocked()
}

// HoldPair holds both directions between two processes.
func (n *InMemNetwork) HoldPair(a, b types.ProcessID) {
	n.Hold(a, b)
	n.Hold(b, a)
}

// Release delivers (in order) all messages held on the link and stops
// holding it.
func (n *InMemNetwork) Release(from, to types.ProcessID) {
	n.mu.Lock()
	l := link{from, to}
	msgs := n.held[l]
	delete(n.held, l)
	var dst *inMemNode
	if len(msgs) > 0 {
		dst = (*n.nodes.Load())[to]
	}
	n.updateSlowLocked()
	n.mu.Unlock()

	if dst == nil {
		releaseAll(msgs)
		return
	}
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
	n.dropped.Add(int64(len(dropped)))
	releaseAll(dropped)
}

// HeldCount returns the number of messages currently held on the link.
func (n *InMemNetwork) HeldCount(from, to types.ProcessID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.held[link{from, to}])
}

// holdIfNeeded queues the message if its link is currently held. It reports
// whether the message was captured. Callers must not hold n.mu. The
// slow-path flag check keeps this off the lock-free fast path: a network
// with no holds configured never takes the lock here.
func (n *InMemNetwork) holdIfNeeded(msg Message) bool {
	if !n.slow.Load() {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	l := link{msg.From, msg.To}
	if n.held == nil {
		return false
	}
	if _, ok := n.held[l]; !ok {
		return false
	}
	n.held[l] = append(n.held[l], msg)
	return true
}
