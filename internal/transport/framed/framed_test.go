package framed

import (
	"fmt"
	"sync"
	"testing"

	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// deliverBatch hands the core one batch frame of n messages, in its own
// arena, the way a carrier's read loop does.
func deliverBatch(c *Core, from types.ProcessID, n int) {
	b := wire.NewBatch(0)
	for i := 0; i < n; i++ {
		b.Append([]byte(fmt.Sprintf("m%d", i)))
	}
	arena := wire.GetArena(len(b.Bytes()))
	copy(arena.Bytes(), b.Bytes())
	c.Deliver(from, wire.BatchKind, arena.Bytes(), arena)
}

// TestDrainRunsEndsOnFrameBoundaries: however the consumer interleaves with
// two read loops, a run never ends partway through a frame, so a server's
// coalescer and commit group always see every request a frame carried.
func TestDrainRunsEndsOnFrameBoundaries(t *testing.T) {
	const frame, frames = 5, 50 // 2 × 50 × 5 messages never fill the queue
	c := NewCore(Config{Self: types.Server(1)})
	var got, inRun int
	done := make(chan bool)
	go func() {
		done <- c.DrainRuns(func(m transport.Message) {
			got++
			inRun++
			m.ReleaseArena()
		}, func() {
			if inRun%frame != 0 {
				t.Errorf("a run ended after %d messages, not on a %d-message frame boundary", inRun, frame)
			}
			inRun = 0
		})
	}()
	var wg sync.WaitGroup
	for _, from := range []types.ProcessID{types.Reader(1), types.Writer()} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				deliverBatch(c, from, frame)
			}
		}()
	}
	wg.Wait()
	c.Close()
	if !<-done {
		t.Fatal("DrainRuns refused a node nobody consumed")
	}
	if want := 2 * frames * frame; got != want || c.Stats().DeliveredMsgs != int64(want) {
		t.Fatalf("consumer got %d messages, stats %+v; want %d", got, c.Stats(), want)
	}
}

// TestConsumerStyleIsDecidedOnce: the first of Inbox and DrainRuns owns the
// node. Inbox delivers what was queued before it; a drained node's inbox is
// closed.
func TestConsumerStyleIsDecidedOnce(t *testing.T) {
	c := NewCore(Config{Self: types.Server(1)})
	deliverBatch(c, types.Reader(1), 3)
	box := c.Inbox()
	for i := 0; i < 3; i++ {
		m, ok := <-box
		if !ok {
			t.Fatalf("inbox closed after %d of the 3 queued messages", i)
		}
		m.ReleaseArena()
	}
	if c.DrainRuns(func(transport.Message) {}, func() {}) {
		t.Fatal("DrainRuns claimed a node already read through Inbox")
	}
	c.Close()
	for m := range box {
		m.ReleaseArena()
	}

	d := NewCore(Config{Self: types.Server(2)})
	delivered := make(chan struct{})
	done := make(chan bool)
	go func() {
		done <- d.DrainRuns(func(m transport.Message) {
			m.ReleaseArena()
			close(delivered)
		}, func() {})
	}()
	deliverBatch(d, types.Reader(1), 1)
	<-delivered
	if _, open := <-d.Inbox(); open {
		t.Fatal("a drained node's inbox is open")
	}
	d.Close()
	if !<-done {
		t.Fatal("DrainRuns did not own a fresh node")
	}
}

// TestQueueBoundDropsAndReleases: with nobody consuming, the queue holds
// InboxLen messages; the rest are counted and their arena references given
// back.
func TestQueueBoundDropsAndReleases(t *testing.T) {
	c := NewCore(Config{Self: types.Server(1)})
	var last *wire.Arena
	for i := 0; i < InboxLen+3; i++ {
		last = wire.GetArena(1)
		c.Deliver(types.Reader(1), "x", last.Bytes(), last)
	}
	if st := c.Stats(); st.DeliveredMsgs != InboxLen || st.InboundDrops != 3 {
		t.Fatalf("stats = %+v, want %d delivered and 3 dropped", st, InboxLen)
	}
	if r := last.Refs(); r != 0 {
		t.Fatalf("a dropped message's arena holds %d references", r)
	}
}
