package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fastread/internal/types"
)

// demuxKeyFunc routes by the payload's leading byte count prefix: payloads
// are "key|rest" and the key is everything before the '|'.
func demuxKeyFunc(m Message) ([]byte, bool) {
	for i, b := range m.Payload {
		if b == '|' {
			return m.Payload[:i], true
		}
	}
	return nil, false
}

func recvTimeout(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("inbox closed unexpectedly")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a routed message")
		return Message{}
	}
}

func TestDemuxRoutesByKey(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	server, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDemux(client, demuxKeyFunc, 0)

	routeA := d.Route("a")
	routeB := d.Route("b")
	if d.Route("a") != routeA {
		t.Error("Route is not idempotent per key")
	}
	if routeA.ID() != client.ID() {
		t.Errorf("virtual node id %v, want %v", routeA.ID(), client.ID())
	}

	for i := 0; i < 3; i++ {
		if err := server.Send(types.Writer(), "m", []byte(fmt.Sprintf("a|%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := server.Send(types.Writer(), "m", []byte(fmt.Sprintf("b|%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Unroutable payloads and payloads for unregistered keys are dropped.
	if err := server.Send(types.Writer(), "m", []byte("no separator")); err != nil {
		t.Fatal(err)
	}
	if err := server.Send(types.Writer(), "m", []byte("c|orphan")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if got := string(recvTimeout(t, routeA.Inbox()).Payload); got != fmt.Sprintf("a|%d", i) {
			t.Errorf("route a received %q", got)
		}
		if got := string(recvTimeout(t, routeB.Inbox()).Payload); got != fmt.Sprintf("b|%d", i) {
			t.Errorf("route b received %q", got)
		}
	}
}

func TestDemuxSendPassesThrough(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	server, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDemux(client, demuxKeyFunc, 0)
	route := d.Route("k")
	if err := route.Send(types.Server(1), "req", []byte("k|ping")); err != nil {
		t.Fatal(err)
	}
	got := recvTimeout(t, server.Inbox())
	if string(got.Payload) != "k|ping" || got.From != types.Writer() {
		t.Errorf("server received %v payload %q", got.From, got.Payload)
	}
}

// TestDemuxSendArena pins a route's arena send: over an in-memory node the
// arena's one reference travels with the message, and over a physical node
// without an arena send the route falls back to a plain Send and leaves the
// reference to the garbage collector, so the payload stays valid.
func TestDemuxSendArena(t *testing.T) {
	for _, tt := range []struct {
		name      string
		wrap      func(Node) Node
		delivered bool
	}{
		{"arena sender", func(n Node) Node { return n }, true},
		{"send only", func(n Node) Node { return struct{ Node }{n} }, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			net := NewInMemNetwork()
			defer net.Close()
			server := mustJoin(t, net, types.Server(1))
			d := NewDemux(tt.wrap(mustJoin(t, net, types.Writer())), demuxKeyFunc, 0)
			defer d.Close()
			payload, a := ackArena(t, 1)
			if err := d.Route("k").(ArenaSender).SendArena(types.Server(1), "req", payload, a); err != nil {
				t.Fatal(err)
			}
			got := recvTimeout(t, server.Inbox())
			if string(got.Payload) != string(payload) {
				t.Errorf("server received payload %q, want %q", got.Payload, payload)
			}
			if delivered := got.Arena == a; delivered != tt.delivered {
				t.Errorf("message carries the arena: %v, want %v", delivered, tt.delivered)
			}
			wantRefs(t, "after delivery", a, 1)
			got.ReleaseArena()
		})
	}
}

func TestDemuxRouteCloseIsIndependent(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	server, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDemux(client, demuxKeyFunc, 0)
	routeA := d.Route("a")
	routeB := d.Route("b")

	if err := routeA.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-routeA.Inbox(); ok {
		t.Error("closed route still delivers")
	}
	// Route b (and the physical node) keep working.
	if err := server.Send(types.Writer(), "m", []byte("b|still alive")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvTimeout(t, routeB.Inbox()).Payload); got != "b|still alive" {
		t.Errorf("route b received %q", got)
	}
	// Closing a route and re-routing the key yields a fresh route.
	fresh := d.Route("a")
	if fresh == routeA {
		t.Error("Route returned the closed route")
	}
	if err := server.Send(types.Writer(), "m", []byte("a|rejoined")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvTimeout(t, fresh.Inbox()).Payload); got != "a|rejoined" {
		t.Errorf("fresh route received %q", got)
	}
}

func TestDemuxCloseClosesRoutes(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	client, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDemux(client, demuxKeyFunc, 0)
	route := d.Route("a")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-route.Inbox():
		if ok {
			t.Error("route delivered a message after demux close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("route inbox not closed by demux close")
	}
	// Routes requested after close are born closed.
	if _, ok := <-d.Route("late").Inbox(); ok {
		t.Error("post-close route delivers")
	}
}

// TestDemuxConcurrentCloseAndDeliver races route closes against the pump to
// catch send-on-closed-channel panics.
func TestDemuxConcurrentCloseAndDeliver(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	server, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDemux(client, demuxKeyFunc, 4)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = server.Send(types.Writer(), "m", []byte(fmt.Sprintf("k%d|x", i%8)))
		}
	}()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i%8)
		rt := d.Route(key)
		_ = rt.Close()
	}
	close(stop)
	wg.Wait()
}

// TestDemuxRouteSurvivesBurstBacklog regression-tests the unbounded route
// queue: a server that lags behind the quorum can flush thousands of
// acknowledgements at a client in one burst while the client is not draining.
// With the old bounded route buffer the flood forced drops — including,
// fatally, the in-flight operation's fresh acks — and permanently starved
// the client. Every burst message must now survive until the consumer gets
// around to draining, in order.
func TestDemuxRouteSurvivesBurstBacklog(t *testing.T) {
	const burst = 5000

	net := NewInMemNetwork()
	defer net.Close()
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatalf("join client: %v", err)
	}
	server, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatalf("join server: %v", err)
	}

	d := NewDemux(client, demuxKeyFunc, 0)
	defer d.Close()
	route := d.Route("k")

	// Flood without draining: everything must queue in the route's mailbox.
	for i := 0; i < burst; i++ {
		if err := server.Send(types.Reader(1), "ack", []byte(fmt.Sprintf("k|%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	for i := 0; i < burst; i++ {
		m := recvTimeout(t, route.Inbox())
		if want := fmt.Sprintf("k|%d", i); string(m.Payload) != want {
			t.Fatalf("message %d: got %q, want %q — burst reordered or dropped", i, m.Payload, want)
		}
	}
}
