package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:"). Tests use it to tell which goroutine delivered.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// returnsSoon runs fn on its own goroutine and fails the test if it has not
// returned within a few seconds: a sender must never block on its receiver.
func returnsSoon(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked", what)
	}
}

// TestPushDeliveryNeverBlocksSenders: the sink of a push-delivered node
// blocks inside its first delivery, which the pusher of that message is
// running. Every later sender only appends and returns while the sink is
// blocked; deliveries never overlap and keep FIFO order; and once the sink is
// released, the consumer goroutine — not the blocked pusher, not a sender —
// delivers the backlog.
func TestPushDeliveryNeverBlocksSenders(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	client := mustJoin(t, net, types.Reader(1))
	srv := mustJoin(t, net, types.Server(1))

	const backlog = 50
	var (
		mu      sync.Mutex
		got     []string
		by      []int64
		inside  atomic.Int32
		overlap atomic.Bool
	)
	entered := make(chan int64, 1)
	release := make(chan struct{})
	deliver := func(m Message) {
		if inside.Add(1) > 1 {
			overlap.Store(true)
		}
		mu.Lock()
		first := len(got) == 0
		got = append(got, string(m.Payload))
		by = append(by, goid())
		mu.Unlock()
		if first {
			entered <- goid()
			<-release
		}
		inside.Add(-1)
		m.ReleaseArena()
	}
	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	serve := Claim(client, deliver, nil, PusherRuns)
	consumer := make(chan int64, 1)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		consumer <- goid()
		serve()
	}()
	consumerID := <-consumer

	pusherReturned := make(chan struct{})
	go func() {
		defer close(pusherReturned)
		_ = srv.Send(client.ID(), "m", []byte("0"))
	}()
	pusherID := <-entered

	for i := 1; i <= backlog; i++ {
		returnsSoon(t, fmt.Sprintf("send %d while the sink is blocked", i), func() {
			_ = srv.Send(client.ID(), "m", []byte(strconv.Itoa(i)))
		})
	}
	if n := delivered(); n != 1 {
		t.Fatalf("%d deliveries while the sink was blocked in the first, want 1", n)
	}
	select {
	case <-pusherReturned:
		t.Fatal("the pusher returned from inside its own delivery")
	default:
	}

	close(release)
	waitClosed(t, "the blocked pusher", pusherReturned)
	deadline := time.Now().Add(10 * time.Second)
	for delivered() < backlog+1 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog not delivered: %d of %d", delivered(), backlog+1)
		}
		time.Sleep(time.Millisecond)
	}
	_ = client.Close()
	waitClosed(t, "the consumer", consumed)

	if overlap.Load() {
		t.Error("two deliveries overlapped")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range got {
		if p != strconv.Itoa(i) {
			t.Fatalf("delivery %d carried %q: not FIFO (%v)", i, p, got)
		}
	}
	if by[0] != pusherID {
		t.Errorf("first message delivered by goroutine %d, want its pusher %d", by[0], pusherID)
	}
	for i, g := range by[1:] {
		if g != consumerID {
			t.Fatalf("backlog message %d delivered by goroutine %d, want the consumer %d", i+1, g, consumerID)
		}
	}
}

// TestPushDeliveryBeforeSendReturns: an acknowledgement sent to an idle
// in-memory client node has reached the route's sink when Send returns.
func TestPushDeliveryBeforeSendReturns(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	client := mustJoin(t, net, types.Reader(1))
	srv := mustJoin(t, net, types.Server(1))
	d := NewDemux(client, demuxKeyFunc, 0)
	defer d.Close()
	sink := &recordingSink{}
	if !d.Route("k").(interface{ BindSink(Sink) bool }).BindSink(sink) {
		t.Fatal("a fresh route refused its sink")
	}
	for i := 0; i < 100; i++ {
		want := strconv.Itoa(i)
		if err := srv.Send(client.ID(), "m", []byte("k|"+want)); err != nil {
			t.Fatal(err)
		}
		if got := sink.last(); got != want {
			t.Fatalf("after Send %d returned the sink's last message is %q", i, got)
		}
	}
}

// TestPushDeliveryNotForServersOrInboxes: only consumers that opted in are
// push-delivered. A plain send to a server never runs its handler (the executor's
// goroutine does), and a node or route read through Inbox keeps its pump, so
// a send returns although nobody reads the channel yet.
func TestPushDeliveryNotForServersOrInboxes(t *testing.T) {
	const msgs = 10
	t.Run("server", func(t *testing.T) {
		net := NewInMemNetwork()
		defer net.Close()
		srv := mustJoin(t, net, types.Server(1))
		client := mustJoin(t, net, types.Reader(1))
		release := make(chan struct{})
		handled := make(chan int64, msgs)
		exec := NewExecutor(srv, nil, 0)
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			exec.RunCoalescing(func(m Message, _ Sender) {
				<-release
				handled <- goid()
			})
		}()
		sender := make(chan int64, 1)
		returnsSoon(t, "a send to a server whose handler waits", func() {
			sender <- goid()
			for i := 0; i < msgs; i++ {
				_ = client.Send(srv.ID(), "m", []byte("x"))
			}
		})
		senderID := <-sender
		close(release)
		for i := 0; i < msgs; i++ {
			select {
			case g := <-handled:
				if g == senderID {
					t.Fatal("the sender ran the server's handler")
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d of %d requests handled", i, msgs)
			}
		}
		_ = srv.Close()
		waitClosed(t, "the executor", stopped)
	})
	t.Run("node-inbox", func(t *testing.T) {
		net := NewInMemNetwork()
		defer net.Close()
		client := mustJoin(t, net, types.Reader(1))
		srv := mustJoin(t, net, types.Server(1))
		inbox := client.Inbox()
		returnsSoon(t, "sends to an unread inbox", func() {
			for i := 0; i < msgs; i++ {
				_ = srv.Send(client.ID(), "m", []byte(strconv.Itoa(i)))
			}
		})
		for i := 0; i < msgs; i++ {
			m := recvTimeout(t, inbox)
			if string(m.Payload) != strconv.Itoa(i) {
				t.Fatalf("message %d carried %q", i, m.Payload)
			}
			m.ReleaseArena()
		}
	})
	t.Run("route-inbox", func(t *testing.T) {
		net := NewInMemNetwork()
		defer net.Close()
		client := mustJoin(t, net, types.Reader(1))
		srv := mustJoin(t, net, types.Server(1))
		d := NewDemux(client, demuxKeyFunc, 0)
		defer d.Close()
		inbox := d.Route("k").Inbox()
		returnsSoon(t, "sends to an unread route inbox", func() {
			for i := 0; i < msgs; i++ {
				_ = srv.Send(client.ID(), "m", []byte("k|"+strconv.Itoa(i)))
			}
		})
		for i := 0; i < msgs; i++ {
			m := recvTimeout(t, inbox)
			if string(m.Payload) != "k|"+strconv.Itoa(i) {
				t.Fatalf("message %d carried %q", i, m.Payload)
			}
			m.ReleaseArena()
		}
	})
}

// TestPushExpandedReleasesTheFrameFirst: a batch frame pushed into an idle
// push-delivered queue is delivered by the pusher inside PushExpanded, and by
// then the frame's own reference is gone. Each sub-message holds one
// reference, so a consumer that releases as it goes counts down from the
// frame's message count to one.
func TestPushExpandedReleasesTheFrameFirst(t *testing.T) {
	const n = 5
	var b wire.Batch
	b.GrowArena(256)
	for i := 0; i < n; i++ {
		if err := b.AppendMessage(&wire.Message{Op: wire.OpReadAck, Key: "k", RCounter: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	payload := b.Bytes()
	frame := b.TakeArena()

	var refs []int32
	q := NewQueue(0)
	defer q.Close()
	if _, ok := q.Claim(func(m Message) {
		refs = append(refs, m.Arena.Refs())
		m.ReleaseArena()
	}, func() {}, PusherRuns); !ok {
		t.Fatal("the queue was already claimed")
	}
	if got := q.PushExpanded(Message{From: types.Server(1), Kind: "m", Payload: payload, Arena: frame}); got != n {
		t.Fatalf("PushExpanded admitted %d messages, want %d", got, n)
	}
	if len(refs) != n {
		t.Fatalf("the pusher delivered %d messages, want %d", len(refs), n)
	}
	for i, got := range refs {
		if want := int32(n - i); got != want {
			t.Errorf("message %d saw %d references on its frame, want %d (one per message not yet released)", i, got, want)
		}
	}
}
