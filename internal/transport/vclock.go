package transport

import (
	"fmt"
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
// driver goroutine repeatedly calls Step, which waits for the system to
// quiesce (no in-flight work) and then executes the earliest scheduled event,
// advancing virtual time instantly to its due instant. A "60-second" scenario
// therefore runs in milliseconds of wall time, and because exactly one event
// fires at a time — in a total (due time, schedule sequence) order — the
// delivery schedule is identical on every run with the same seed.
//
// Quiescence is tracked by an activity counter: every undelivered or
// unprocessed message holds one activity token from the moment the network
// hands it to a mailbox until its consumer calls Message.ReleaseArena (the
// token rides the existing arena retain/release discipline, which already
// marks exactly the hand-off points where a message changes hands). The
// clock never advances while a token is outstanding, so an event's entire
// causal cascade — handler runs, replies scheduled — finishes before the
// next event fires.
//
// Wall-clock prohibitions: code running under a VirtualClock must never
// consult time.Now for protocol-visible decisions, sleep, or arm wall
// timers (time.After, context.WithTimeout, context.AfterFunc). Timeouts are
// expressed as scheduled events that abort an operation via an
// already-cancelled context, which the pipeline engine honours
// synchronously.
type VirtualClock struct {
	mu       sync.Mutex
	cond     *sync.Cond // signalled when activity reaches zero
	now      time.Time
	events   dueHeap // scheduled callbacks
	activity int
}

// NewVirtualClock returns a clock positioned at VirtualEpoch with no events.
func NewVirtualClock() *VirtualClock {
	c := &VirtualClock{now: VirtualEpoch}
	c.cond = sync.NewCond(&c.mu)
	return c
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

// begin takes one activity token; the clock will not fire further events
// until it is returned with end.
func (c *VirtualClock) begin() {
	c.mu.Lock()
	c.activity++
	c.mu.Unlock()
}

// end returns an activity token taken with begin.
func (c *VirtualClock) end() {
	c.mu.Lock()
	c.activity--
	if c.activity == 0 {
		c.cond.Broadcast()
	}
	if c.activity < 0 {
		c.mu.Unlock()
		panic("transport: virtual clock activity underflow")
	}
	c.mu.Unlock()
}

// Step waits (up to maxIdleWait of wall time) for activity to quiesce,
// executes the earliest scheduled event, advancing virtual time to its due
// instant, and waits again for that event's whole causal cascade — handlers
// run, operations completed, replies scheduled — to quiesce, so what the
// caller observes when Step returns is the complete effect of the event, at
// the event's instant, whatever the goroutine schedule was. It returns false
// when no events remain. A non-nil error means the system failed to quiesce —
// some component is stuck holding an activity token, which under a virtual
// clock indicates a genuine deadlock or a wall-clock sleep that must not
// exist in simulation.
//
// Step must only ever be called from one goroutine (the simulation driver).
func (c *VirtualClock) Step(maxIdleWait time.Duration) (bool, error) {
	if err := c.quiesce(maxIdleWait); err != nil {
		return false, err
	}
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
	return true, c.quiesce(maxIdleWait)
}

// quiesce waits (up to maxIdleWait of wall time; forever if it is zero) until
// no activity token is outstanding.
func (c *VirtualClock) quiesce(maxIdleWait time.Duration) error {
	timedOut := false
	if maxIdleWait > 0 {
		watchdog := time.AfterFunc(maxIdleWait, func() {
			c.mu.Lock()
			timedOut = true
			c.mu.Unlock()
			c.cond.Broadcast()
		})
		defer watchdog.Stop()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.activity > 0 && !timedOut {
		c.cond.Wait()
	}
	if c.activity > 0 {
		return fmt.Errorf("transport: virtual clock stalled: %d activity tokens outstanding after %v", c.activity, maxIdleWait)
	}
	return nil
}

// RunNext is Step without a watchdog: it blocks until quiescent, then fires
// the next event. Intended for tests; simulations should use Step with a
// wall-clock bound so a stall surfaces as an error instead of a hang.
func (c *VirtualClock) RunNext() bool {
	ran, _ := c.Step(0)
	return ran
}
