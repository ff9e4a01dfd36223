package transport

import (
	"sync"
	"time"
)

// VirtualEpoch is the instant a VirtualClock starts at. It is a fixed,
// arbitrary date so that two simulations of the same scenario produce
// byte-identical timestamps (histories are compared and fingerprinted on
// them) regardless of when or where they run.
var VirtualEpoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// VirtualClock is a deterministic logical clock for simulation. Instead of
// sleeping, components schedule callbacks at virtual instants; a single
// driver goroutine repeatedly calls Step, which executes the earliest
// scheduled event, advancing virtual time instantly to its due instant. A
// "60-second" scenario therefore runs in milliseconds of wall time, and
// because exactly one event fires at a time — in a total (due time, schedule
// sequence) order — the delivery schedule is identical on every run with the
// same seed.
//
// An event's whole cascade runs inside it, on Step's goroutine: on a network
// with a clock every consumer is push-delivered (WithClock), so the event
// that delivers a message runs its handler, the handler's run end and the
// client completion it causes, and every message they send becomes a later
// event. Nothing of the cascade is left on another goroutine when Step
// returns, whatever the goroutine schedule was. A delivery its event could
// not hand to a consumer is recorded on the clock and returned by that Step
// as an error.
//
// Wall-clock prohibitions: code running under a VirtualClock must never
// consult time.Now for protocol-visible decisions, sleep, or arm wall
// timers (time.After, context.WithTimeout, context.AfterFunc). Timeouts are
// expressed as scheduled events that abort an operation via an
// already-cancelled context, which the pipeline engine honours
// synchronously.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	events dueHeap // scheduled callbacks

	// err is what the running event recorded (fail); only Step's goroutine
	// touches it.
	err error
}

// NewVirtualClock returns a clock positioned at VirtualEpoch with no events.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: VirtualEpoch}
}

// Now returns the current virtual time. Safe for concurrent use.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Schedule queues fn to run d after the current virtual instant (a
// non-positive d schedules it "now", still behind already-queued events for
// the same instant). fn runs on the driver goroutine inside Step; it must
// not block on work that itself needs the clock to advance.
func (c *VirtualClock) Schedule(d time.Duration, fn func()) {
	c.mu.Lock()
	at := c.now
	if d > 0 {
		at = at.Add(d)
	}
	c.events.push(at, fn)
	c.mu.Unlock()
}

// Step executes the earliest scheduled event, advancing virtual time to its
// due instant. The event's whole cascade runs inside it, so what the caller
// observes when Step returns is the complete effect of the event, at the
// event's instant. It returns false when no events remain, and the error the
// event recorded, if any: a delivery no push-delivered consumer took.
//
// Step must only ever be called from one goroutine (the simulation driver).
func (c *VirtualClock) Step() (bool, error) {
	c.mu.Lock()
	if c.events.len() == 0 {
		c.mu.Unlock()
		return false, nil
	}
	at, fn := c.events.pop()
	if at.After(c.now) {
		c.now = at
	}
	c.mu.Unlock()
	fn()
	err := c.err
	c.err = nil
	return true, err
}

// fail records err for the running event's Step to return; the first one
// wins. Only events call it.
func (c *VirtualClock) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
