package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// client is one closed-loop client goroutine: it owns a partition of the
// keys, their checker state, a reusable value buffer and preallocated
// latency buffers. It has at most Depth operations outstanding and submits
// the next one only when a slot frees — the paper's client model at depth 1.
type client struct {
	tgt   target
	strm  *stream
	chk   *checker
	depth int

	ops      []op
	value    []byte  // reused for every write: the writers clone what they keep
	readLat  []int64 // exact per-operation latencies of the current round, ns
	writeLat []int64
	ring     []inflight // depth > 1 only

	failed   int   // operations that returned an error, all rounds
	firstErr error // the first such error
}

// inflight is one submitted, not yet collected, asynchronous operation.
type inflight struct {
	p       pending
	key     int
	isRead  bool
	version int64 // writes: the version submitted
	floor   int64 // reads: the checker's floor at submission
	start   time.Time
}

func newClient(tgt target, strm *stream, chk *checker, depth, opsPerRound int) *client {
	c := &client{
		tgt: tgt, strm: strm, chk: chk, depth: depth,
		ops:      make([]op, opsPerRound),
		value:    make([]byte, valueSize),
		readLat:  make([]int64, 0, opsPerRound),
		writeLat: make([]int64, 0, opsPerRound),
	}
	for i := 8; i < valueSize; i++ {
		c.value[i] = byte(i)
	}
	if depth > 1 {
		c.ring = make([]inflight, depth)
	}
	return c
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// run executes the client's current ops. Latency is submit -> result as the
// client observes it; at depth > 1 results are collected oldest first, which
// is how a windowed client experiences them.
func (c *client) run(ctx context.Context) {
	c.readLat, c.writeLat = c.readLat[:0], c.writeLat[:0]
	if c.depth == 1 {
		c.runSerial(ctx)
		return
	}
	head, n := 0, 0 // ring[head] is the oldest of n in-flight operations
	for _, o := range c.ops {
		if n == c.depth {
			c.collect(ctx, &c.ring[head])
			head, n = (head+1)%c.depth, n-1
		}
		if c.submit(ctx, o, &c.ring[(head+n)%c.depth]) {
			n++
		}
	}
	for ; n > 0; head, n = (head+1)%c.depth, n-1 {
		c.collect(ctx, &c.ring[head])
	}
}

func (c *client) runSerial(ctx context.Context) {
	for _, o := range c.ops {
		k := int(o.key)
		if o.reader == 0 {
			version := c.chk.submitWrite(k, c.value)
			start := time.Now()
			err := c.tgt.write(ctx, k, c.value)
			lat := time.Since(start)
			if err != nil {
				c.fail(err)
				continue
			}
			c.chk.completeWrite(k, version)
			c.writeLat = append(c.writeLat, int64(lat))
			continue
		}
		floor := c.chk.submitRead(k)
		start := time.Now()
		out, err := c.tgt.read(ctx, k, int(o.reader))
		lat := time.Since(start)
		if err != nil {
			c.fail(err)
			continue
		}
		_ = c.chk.completeRead(k, floor, out) // counted in the checker
		c.readLat = append(c.readLat, int64(lat))
	}
}

// submit starts one asynchronous operation in slot; it reports false when
// the submission itself failed (the slot stays free).
func (c *client) submit(ctx context.Context, o op, slot *inflight) bool {
	k := int(o.key)
	*slot = inflight{key: k, isRead: o.reader != 0}
	var err error
	if slot.isRead {
		slot.floor = c.chk.submitRead(k)
		slot.start = time.Now()
		err = c.tgt.submitRead(ctx, k, int(o.reader), &slot.p)
	} else {
		slot.version = c.chk.submitWrite(k, c.value)
		slot.start = time.Now()
		err = c.tgt.submitWrite(ctx, k, c.value, &slot.p)
	}
	if err != nil {
		c.fail(err)
		return false
	}
	return true
}

// collect waits for the operation in slot and checks its result.
func (c *client) collect(ctx context.Context, slot *inflight) {
	out, err := slot.p.wait(ctx)
	lat := time.Since(slot.start)
	if err != nil {
		c.fail(err)
		return
	}
	if slot.isRead {
		_ = c.chk.completeRead(slot.key, slot.floor, out)
		c.readLat = append(c.readLat, int64(lat))
		return
	}
	c.chk.completeWrite(slot.key, slot.version)
	c.writeLat = append(c.writeLat, int64(lat))
}

// runRound generates every client's next operations (untimed), runs them
// concurrently and returns the wall time of the slowest client plus the
// round's merged, sorted read and write latencies (valid until the next
// round).
func runRound(ctx context.Context, clients []*client, scratch *latScratch) (wall time.Duration, reads, writes []int64) {
	for _, c := range clients {
		c.strm.fill(c.ops)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx)
		}()
	}
	clients[0].run(ctx) // the caller is client 0: no extra goroutine, no handoff
	wg.Wait()
	wall = time.Since(start)

	scratch.reads, scratch.writes = scratch.reads[:0], scratch.writes[:0]
	for _, c := range clients {
		scratch.reads = append(scratch.reads, c.readLat...)
		scratch.writes = append(scratch.writes, c.writeLat...)
	}
	slices.Sort(scratch.reads)
	slices.Sort(scratch.writes)
	return wall, scratch.reads, scratch.writes
}

// latScratch holds the merged per-round latencies; it is reused across
// rounds so sorting never allocates inside a measured interval.
type latScratch struct{ reads, writes []int64 }

// tally sums the clients' failure and violation counts.
func tally(clients []*client) (failed, violations int, first error) {
	for _, c := range clients {
		failed += c.failed
		violations += c.chk.violations
		if first == nil {
			first = c.firstErr
		}
		if first == nil && c.chk.first != nil {
			first = fmt.Errorf("correctness: %w", c.chk.first)
		}
	}
	return failed, violations, first
}
