package transport

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// consumeRows are the three shapes of node Claim serves. Every row is the
// same in-memory node underneath, so the contract checks below can queue
// messages the same way for all of them; what differs is how Claim gets at
// them.
var consumeRows = []struct {
	name string
	// wrap returns the node as the consumer sees it.
	wrap func(Node) Node
}{
	// The product path: Claim binds the queue and serve runs it on the
	// serving goroutine.
	{"inmem-drained", func(n Node) Node { return n }},
	// Inbox was called first, so the node feeds a channel for its lifetime
	// and serve ranges over it.
	{"inmem-inbox", func(n Node) Node { n.Inbox(); return n }},
	// A decorator (like cmd/benchreport's traced node) hides everything but
	// the Node interface: serve can only range over its Inbox.
	{"channel-only", func(n Node) Node { return struct{ Node }{n} }},
}

// runConsume claims node for deliver and runEnd, as a live server does (not
// push-delivered), serves it on its own goroutine and returns a channel that
// closes when serve returns.
func runConsume(node Node, deliver func(Message), runEnd func()) <-chan struct{} {
	serve := Claim(node, deliver, runEnd, ConsumerRuns)
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve()
	}()
	return done
}

// serveQueue is runConsume for a bare Queue, which nobody may have claimed.
func serveQueue(t *testing.T, q *Queue, deliver func(Message), runEnd func()) <-chan struct{} {
	t.Helper()
	serve, ok := q.Claim(deliver, runEnd, ConsumerRuns)
	if !ok {
		t.Fatal("Claim refused a queue nobody consumed")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve()
	}()
	return done
}

func waitClosed(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// TestConsumePerLinkFIFO: 10⁴ messages from 4 concurrent senders reach the
// consumer complete and in each sender's send order.
func TestConsumePerLinkFIFO(t *testing.T) {
	const senders, perSender = 4, 2500
	for _, row := range consumeRows {
		t.Run(row.name, func(t *testing.T) {
			net := NewInMemNetwork()
			defer net.Close()
			dst := mustJoin(t, net, types.Reader(1))

			next := make([]uint32, senders+1)
			total := 0
			all := make(chan struct{})
			done := runConsume(row.wrap(dst), func(m Message) {
				Expand(m, func(sub Message) {
					seq := binary.BigEndian.Uint32(sub.Payload)
					if seq != next[sub.From.Index] {
						t.Errorf("from %v: got message %d, want %d", sub.From, seq, next[sub.From.Index])
					}
					next[sub.From.Index] = seq + 1
					if total++; total == senders*perSender {
						close(all)
					}
				})
				m.ReleaseArena()
			}, nil)

			var wg sync.WaitGroup
			for s := 1; s <= senders; s++ {
				src := mustJoin(t, net, types.Server(s))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := uint32(0); i < perSender; i++ {
						if err := src.Send(dst.ID(), "m", binary.BigEndian.AppendUint32(nil, i)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			waitClosed(t, "delivery of every message", all)
			_ = dst.Close()
			waitClosed(t, "serve", done)
		})
	}
}

// TestConsumeRunBoundaries: runEnd follows the last message of every run —
// never a message-less call in mid-stream — and is called exactly once more,
// with nothing delivered since, when the node has closed.
func TestConsumeRunBoundaries(t *testing.T) {
	const msgs = 500
	for _, row := range consumeRows {
		t.Run(row.name, func(t *testing.T) {
			net := NewInMemNetwork()
			defer net.Close()
			dst := mustJoin(t, net, types.Reader(1))
			src := mustJoin(t, net, types.Server(1))

			var sinceEnd, delivered, runs, emptyEnds int
			lastEndEmpty := false
			all := make(chan struct{})
			done := runConsume(row.wrap(dst), func(m Message) {
				Expand(m, func(Message) {
					sinceEnd++
					if delivered++; delivered == msgs {
						close(all)
					}
				})
				m.ReleaseArena()
			}, func() {
				lastEndEmpty = sinceEnd == 0
				if lastEndEmpty {
					emptyEnds++
				} else {
					runs++
				}
				sinceEnd = 0
			})
			for i := 0; i < msgs; i++ {
				if err := src.Send(dst.ID(), "m", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			waitClosed(t, "delivery of every message", all)
			_ = dst.Close()
			waitClosed(t, "serve", done)

			if runs < 1 || runs > msgs {
				t.Errorf("%d runs for %d messages", runs, msgs)
			}
			if sinceEnd != 0 {
				t.Errorf("%d messages delivered after the last run end", sinceEnd)
			}
			if emptyEnds != 1 || !lastEndEmpty {
				t.Errorf("message-less run ends: %d (last call message-less: %v), want exactly the one at close", emptyEnds, lastEndEmpty)
			}
		})
	}
}

// TestConsumeUnbatchedRunsOfOne: on a virtual-clock network every run is one
// message, backlog or not — the event that fires a delivery handles it, so a
// consumer that asked for a serving goroutine of its own is push-delivered.
func TestConsumeUnbatchedRunsOfOne(t *testing.T) {
	clock := NewVirtualClock()
	net := NewInMemNetwork(WithClock(clock))
	defer net.Close()
	dst := mustJoin(t, net, types.Reader(1))
	src := mustJoin(t, net, types.Server(1))
	sinceEnd, delivered := 0, 0
	done := runConsume(dst, func(m Message) {
		if sinceEnd++; sinceEnd > 1 {
			t.Errorf("a run of %d messages on a virtual-clock network", sinceEnd)
		}
		delivered++
		m.ReleaseArena()
	}, func() { sinceEnd = 0 })
	const msgs = 200
	for i := 0; i < msgs; i++ { // a backlog: every delivery is a pending event
		if err := src.Send(dst.ID(), "m", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	stepAll(t, clock)
	_ = dst.Close()
	waitClosed(t, "serve", done)
	if delivered != msgs {
		t.Fatalf("delivered %d of %d messages", delivered, msgs)
	}
}

// TestConsumeCloseReleasesBacklog: closing a node with messages still queued
// gives back every arena reference they hold — through the consumer when
// there is one, in Close itself when there never was (and that Close
// returns). Only a network without a clock can queue a backlog: with one,
// the event that pushes a message delivers it.
func TestConsumeCloseReleasesBacklog(t *testing.T) {
	const backlog = 300
	rows := append(consumeRows[:len(consumeRows):len(consumeRows)], struct {
		name string
		wrap func(Node) Node
	}{name: "never-consumed"})
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			net := NewInMemNetwork()
			defer net.Close()
			dst := mustJoin(t, net, types.Reader(1))

			// Queue the backlog as a socket transport would have delivered
			// it: every message owns one reference on a shared frame arena.
			arena := wire.GetArena(8)
			for i := 0; i < backlog; i++ {
				m := Message{From: types.Server(1), To: dst.ID(), Kind: "m", Payload: arena.Bytes(), Arena: arena}
				m.RetainArena()
				if !dst.(*inMemNode).Push(m) {
					t.Fatal("push rejected on an open node")
				}
			}

			closed := make(chan struct{})
			closeNode := func() {
				defer close(closed)
				_ = dst.Close()
			}
			if row.wrap == nil {
				go closeNode()
			} else {
				// The consumer sits on its first message until Close is under
				// way, so Close finds the rest still queued behind it.
				entered, gate := make(chan struct{}), make(chan struct{})
				first := true
				done := runConsume(row.wrap(dst), func(m Message) {
					if first {
						first = false
						close(entered)
						<-gate
					}
					m.ReleaseArena()
				}, nil)
				waitClosed(t, "the first delivery", entered)
				go closeNode()
				close(gate)
				waitClosed(t, "serve", done)
			}
			waitClosed(t, "Close", closed)

			if got := arena.Refs(); got != 1 {
				t.Errorf("arena holds %d references after close, want the test's own 1", got)
			}
		})
	}
}

// TestRouteSinkAndInboxSeeTheSameStream: a route bound to a sink and a route
// read through Inbox receive the same messages in the same order, and each
// learns of the close exactly once, after the last message.
func TestRouteSinkAndInboxSeeTheSameStream(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	client := mustJoin(t, net, types.Reader(1))
	src := mustJoin(t, net, types.Server(1))
	d := NewDemux(client, demuxKeyFunc, 0)

	sink := &recordingSink{}
	bound, ok := d.Route("a").(interface{ BindSink(Sink) bool })
	if !ok || !bound.BindSink(sink) {
		t.Fatal("a fresh route refused its sink")
	}
	inbox := d.Route("b").Inbox()
	const msgs = 2000
	var viaInbox []string
	inboxAll, inboxDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(inboxDone)
		for m := range inbox {
			viaInbox = append(viaInbox, string(m.Payload[2:]))
			m.ReleaseArena()
			if len(viaInbox) == msgs {
				close(inboxAll)
			}
		}
	}()

	for i := 0; i < msgs; i++ {
		body := string(rune('0'+i%10)) + string(rune('a'+i%26))
		for _, key := range []string{"a", "b"} {
			if err := src.Send(client.ID(), "m", []byte(key+"|"+body)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The pump handles one node's messages in order, so once the trailer has
	// reached the sink everything before it has been routed.
	if err := src.Send(client.ID(), "m", []byte("a|end")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sink.last() != "end" {
		if time.Now().After(deadline) {
			t.Fatal("the trailer never reached the sink")
		}
		time.Sleep(time.Millisecond)
	}
	// A closing route discards what its channel side still holds, so let the
	// reader finish first.
	waitClosed(t, "the Inbox reader's last message", inboxAll)
	_ = d.Close()
	waitClosed(t, "the Inbox reader", inboxDone)

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.closes != 1 {
		t.Errorf("sink told closed %d times, want exactly once", sink.closes)
	}
	if sink.afterClose != 0 {
		t.Errorf("%d messages delivered to the sink after it was told closed", sink.afterClose)
	}
	viaSink := sink.got[:len(sink.got)-1] // drop the trailer
	if len(viaSink) != msgs || len(viaInbox) != msgs {
		t.Fatalf("sink got %d, inbox got %d, want %d each", len(viaSink), len(viaInbox), msgs)
	}
	for i := range viaSink {
		if viaSink[i] != viaInbox[i] {
			t.Fatalf("streams diverge at %d: sink %q, inbox %q", i, viaSink[i], viaInbox[i])
		}
	}
}

// recordingSink records what a route delivers to it.
type recordingSink struct {
	mu         sync.Mutex
	got        []string
	closes     int
	afterClose int
}

func (s *recordingSink) Deliver(m Message) {
	s.mu.Lock()
	if s.closes > 0 {
		s.afterClose++
	}
	s.got = append(s.got, string(m.Payload[2:]))
	s.mu.Unlock()
	m.ReleaseArena()
}

func (s *recordingSink) Closed() {
	s.mu.Lock()
	s.closes++
	s.mu.Unlock()
}

func (s *recordingSink) last() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.got) == 0 {
		return ""
	}
	return s.got[len(s.got)-1]
}

// TestRouteCloseDuringDelivery: closing a route while the pump is delivering
// into it tells its sink closed exactly once, after the last delivery — the
// guarantee a reader restart and a handle's Close lean on.
func TestRouteCloseDuringDelivery(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	client := mustJoin(t, net, types.Reader(1))
	src := mustJoin(t, net, types.Server(1))
	d := NewDemux(client, demuxKeyFunc, 0)
	defer d.Close()

	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = src.Send(client.ID(), "m", []byte("a|x"))
			}
		}
	}()
	var sinks []*recordingSink
	for i := 0; i < 200; i++ {
		sink := &recordingSink{}
		sinks = append(sinks, sink)
		rt := d.Route("a")
		if !rt.(interface{ BindSink(Sink) bool }).BindSink(sink) {
			t.Fatal("a fresh route refused its sink")
		}
		for sink.last() == "" { // deliveries are under way
			time.Sleep(10 * time.Microsecond)
		}
		_ = rt.Close()
	}
	close(stop)
	flood.Wait()
	for i, sink := range sinks {
		sink.mu.Lock()
		closes, late := sink.closes, sink.afterClose
		sink.mu.Unlock()
		if closes != 1 || late != 0 {
			t.Fatalf("incarnation %d: told closed %d times with %d deliveries after, want 1 and 0", i, closes, late)
		}
	}
}
