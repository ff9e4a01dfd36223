package transport

import (
	"sync"
	"testing"
	"time"

	"fastread/internal/types"
)

func mustJoin(t *testing.T, net *InMemNetwork, id types.ProcessID) Node {
	t.Helper()
	node, err := net.Join(id)
	if err != nil {
		t.Fatalf("Join(%v): %v", id, err)
	}
	return node
}

func recvWithTimeout(t *testing.T, node Node, timeout time.Duration) (Message, bool) {
	t.Helper()
	select {
	case msg, ok := <-node.Inbox():
		return msg, ok
	case <-time.After(timeout):
		return Message{}, false
	}
}

func TestInMemDeliverBasic(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()

	a := mustJoin(t, net, types.Writer())
	b := mustJoin(t, net, types.Server(1))

	if err := a.Send(b.ID(), "ping", []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg, ok := recvWithTimeout(t, b, time.Second)
	if !ok {
		t.Fatal("message not delivered")
	}
	if msg.From != types.Writer() || msg.To != types.Server(1) || msg.Kind != "ping" || string(msg.Payload) != "hello" {
		t.Errorf("unexpected message %v", msg)
	}
}

func TestInMemOrderingPerLink(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()

	a := mustJoin(t, net, types.Reader(1))
	b := mustJoin(t, net, types.Server(1))

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(b.ID(), "seq", []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		msg, ok := recvWithTimeout(t, b, time.Second)
		if !ok {
			t.Fatalf("message %d not delivered", i)
		}
		if msg.Payload[0] != byte(i) {
			t.Fatalf("out of order: got %d at position %d", msg.Payload[0], i)
		}
	}
}

func TestInMemJoinTwiceFails(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	mustJoin(t, net, types.Server(1))
	if _, err := net.Join(types.Server(1)); err == nil {
		t.Fatal("second Join succeeded, want error")
	}
}

func TestInMemJoinInvalidID(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	if _, err := net.Join(types.ProcessID{}); err == nil {
		t.Fatal("Join with zero id succeeded, want error")
	}
}

func TestInMemCrashStopsDelivery(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	b := mustJoin(t, net, types.Server(1))
	c := mustJoin(t, net, types.Server(2))

	net.Isolate(types.Server(1))
	if err := a.Send(b.ID(), "to-crashed", nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatal("crashed process received a message")
	}
	// Messages from a crashed process are dropped as well.
	if err := b.Send(c.ID(), "from-crashed", nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, ok := recvWithTimeout(t, c, 50*time.Millisecond); ok {
		t.Fatal("message from crashed process was delivered")
	}
}

// TestInMemStatsSurviveRestart: a restarted process rejoins with a fresh
// queue, but the network's counters keep what its old queue admitted and how
// deep it got.
func TestInMemStatsSurviveRestart(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	w := mustJoin(t, net, types.Writer())
	s1 := mustJoin(t, net, types.Server(1))
	const sent = 5
	for i := 0; i < sent; i++ {
		if err := w.Send(s1.ID(), "unconsumed", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	mustJoin(t, net, types.Server(1))
	if st := net.Stats(); st.MailboxHighWater < sent || st.DeliveredMsgs != sent {
		t.Fatalf("after restart: high water %d, delivered %d; want >= %d and %d",
			st.MailboxHighWater, st.DeliveredMsgs, sent, sent)
	}
}

func TestInMemSendToUnknownProcessIsDropped(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	if err := a.Send(types.Server(9), "nowhere", nil); err != nil {
		t.Fatalf("Send to unknown process should not error, got %v", err)
	}
	if s := net.Stats(); s.InboundDrops != 1 {
		t.Errorf("Stats.InboundDrops = %d, want 1", s.InboundDrops)
	}
}

func TestInMemNodeCloseUnblocksSenders(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	b := mustJoin(t, net, types.Server(1))

	// Fill b's mailbox without reading, then close it. Sends must not block
	// and Close must return.
	for i := 0; i < 100; i++ {
		if err := a.Send(b.ID(), "noise", nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = b.Close()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("node Close did not return")
	}
	if err := a.Send(b.ID(), "after-close", nil); err != nil {
		t.Fatalf("Send after peer close: %v", err)
	}
}

func TestInMemSendAfterOwnCloseFails(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	mustJoin(t, net, types.Server(1))
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Send(types.Server(1), "x", nil); err == nil {
		t.Fatal("Send after Close succeeded, want error")
	}
}

func TestInMemNetworkCloseIdempotent(t *testing.T) {
	net := NewInMemNetwork()
	mustJoin(t, net, types.Reader(1))
	if err := net.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := net.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := net.Join(types.Reader(2)); err == nil {
		t.Fatal("Join after Close succeeded, want error")
	}
}

func TestInMemConcurrentSendersAllDelivered(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()

	const senders = 8
	const perSender = 50
	dst := mustJoin(t, net, types.Server(1))

	var wg sync.WaitGroup
	for i := 1; i <= senders; i++ {
		node := mustJoin(t, net, types.Reader(i))
		wg.Add(1)
		go func(n Node) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				if err := n.Send(dst.ID(), "load", []byte{byte(j)}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(node)
	}

	received := 0
	deadline := time.After(5 * time.Second)
	for received < senders*perSender {
		select {
		case _, ok := <-dst.Inbox():
			if !ok {
				t.Fatal("inbox closed early")
			}
			received++
		case <-deadline:
			t.Fatalf("received %d of %d messages", received, senders*perSender)
		}
	}
	wg.Wait()
}

// TestMailboxFIFOAndClose: a queue's consumer gets every message in push
// order, including those still queued when the queue closes; pushes after
// Close are refused.
func TestMailboxFIFOAndClose(t *testing.T) {
	q := NewQueue(0)
	push := func(from, to int) {
		for i := from; i < to; i++ {
			if !q.Push(Message{Kind: string(rune('a' + i))}) {
				t.Fatalf("push %d failed", i)
			}
		}
	}
	push(0, 5)
	if q.Len() != 5 {
		t.Fatalf("len = %d, want 5", q.Len())
	}
	// The consumer holds its first run while the second queues behind it.
	entered, gate := make(chan struct{}), make(chan struct{})
	var got []string
	done := make(chan bool)
	go func() {
		done <- q.DrainRuns(func(m Message) {
			if got = append(got, m.Kind); len(got) == 1 {
				close(entered)
				<-gate
			}
		}, func() {})
	}()
	<-entered
	push(5, 10)
	q.Close()
	if q.Push(Message{Kind: "late"}) {
		t.Error("push after close should report false")
	}
	close(gate)
	if !<-done {
		t.Fatal("DrainRuns refused a queue nobody consumed")
	}
	if len(got) != 10 {
		t.Fatalf("consumer got %d messages, want 10", len(got))
	}
	for i, kind := range got {
		if kind != string(rune('a'+i)) {
			t.Fatalf("message %d = %q, out of order", i, kind)
		}
	}
}

func TestMailboxPopBlocksUntilPush(t *testing.T) {
	q := NewQueue(0)
	got := make(chan Message, 1)
	go q.DrainRuns(func(m Message) { got <- m }, func() {})
	defer q.Close()
	time.Sleep(10 * time.Millisecond)
	q.Push(Message{Kind: "late-arrival"})
	select {
	case msg := <-got:
		if msg.Kind != "late-arrival" {
			t.Errorf("got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatal("the consumer never received the push")
	}
}
