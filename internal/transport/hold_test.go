package transport

import (
	"testing"
	"time"

	"fastread/internal/types"
)

func TestHoldAndReleaseDeliversInOrder(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	b := mustJoin(t, net, types.Server(1))

	net.Hold(a.ID(), b.ID())
	for i := 0; i < 5; i++ {
		if err := a.Send(b.ID(), "held", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatal("held message delivered before Release")
	}

	net.Release(a.ID(), b.ID())
	for i := 0; i < 5; i++ {
		msg, ok := recvWithTimeout(t, b, time.Second)
		if !ok {
			t.Fatalf("message %d not delivered after Release", i)
		}
		if msg.Payload[0] != byte(i) {
			t.Fatalf("out of order after Release: got %d at %d", msg.Payload[0], i)
		}
	}
	// After Release the link behaves normally again.
	if err := a.Send(b.ID(), "normal", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, time.Second); !ok {
		t.Fatal("post-release message not delivered")
	}
}

func TestDropHeldDiscardsMessages(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	b := mustJoin(t, net, types.Server(1))

	net.Hold(a.ID(), b.ID())
	if err := a.Send(b.ID(), "lost", nil); err != nil {
		t.Fatal(err)
	}
	net.DropHeld(a.ID(), b.ID())
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatal("dropped held message was delivered")
	}
	if s := net.Stats(); s.InboundDrops != 1 {
		t.Errorf("InboundDrops = %d, want 1", s.InboundDrops)
	}
	// Link no longer held.
	if err := a.Send(b.ID(), "ok", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, time.Second); !ok {
		t.Fatal("post-drop message not delivered")
	}
}

func TestHoldIsDirectional(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	b := mustJoin(t, net, types.Server(1))

	net.Hold(a.ID(), b.ID())
	if err := b.Send(a.ID(), "reverse", nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, ok := recvWithTimeout(t, a, time.Second); !ok {
		t.Fatal("reverse direction should not be held")
	}
}

// TestIsolatedSenderIsNotHeld pins the routing order: a message from or to
// an isolated process is dropped at send time, even on a held link, so a
// later Release has nothing to deliver.
func TestIsolatedSenderIsNotHeld(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	w := mustJoin(t, net, types.Writer())
	s1 := mustJoin(t, net, types.Server(1))

	net.Hold(s1.ID(), w.ID())
	net.Hold(w.ID(), s1.ID())
	net.Isolate(s1.ID())
	if err := s1.Send(w.ID(), "from-isolated", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(s1.ID(), "to-isolated", nil); err != nil {
		t.Fatal(err)
	}
	net.Release(s1.ID(), w.ID())
	net.Release(w.ID(), s1.ID())
	if msg, ok := recvWithTimeout(t, w, 50*time.Millisecond); ok {
		t.Fatalf("isolated sender's message delivered on Release: %v", msg)
	}
	if msg, ok := recvWithTimeout(t, s1, 50*time.Millisecond); ok {
		t.Fatalf("message to isolated process delivered on Release: %v", msg)
	}
	if s := net.Stats(); s.InboundDrops != 2 {
		t.Errorf("InboundDrops = %d, want 2", s.InboundDrops)
	}
}

func TestReleaseEmptyOrUnknownLinkIsNoop(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	b := mustJoin(t, net, types.Server(1))
	net.Release(a.ID(), b.ID()) // never held
	net.Hold(a.ID(), b.ID())
	net.Release(a.ID(), b.ID()) // held but empty
	if err := a.Send(b.ID(), "after", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, time.Second); !ok {
		t.Fatal("message not delivered after empty release")
	}
}

// TestCloseReleasesHeldMessages: a message held when the network closes is
// dropped with it and gives its arena reference back.
func TestCloseReleasesHeldMessages(t *testing.T) {
	net := NewInMemNetwork()
	s1 := mustJoin(t, net, types.Server(1)).(*inMemNode)
	w := mustJoin(t, net, types.Writer())

	net.Hold(s1.ID(), w.ID())
	payload, a := ackArena(t, 1)
	a.Ref() // the test's own reference
	defer a.Release()
	if err := s1.SendArena(w.ID(), "readack", payload, a); err != nil {
		t.Fatal(err)
	}
	wantRefs(t, "a held ack", a, 2)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	wantRefs(t, "a held ack after Close", a, 1)
	if s := net.Stats(); s.InboundDrops != 1 {
		t.Errorf("InboundDrops = %d, want 1", s.InboundDrops)
	}
}
