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
	if got := net.HeldCount(a.ID(), b.ID()); got != 5 {
		t.Fatalf("HeldCount = %d, want 5", got)
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
	if s := net.Stats(); s.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Dropped)
	}
	// Link no longer held.
	if err := a.Send(b.ID(), "ok", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithTimeout(t, b, time.Second); !ok {
		t.Fatal("post-drop message not delivered")
	}
}

func TestHoldPairHoldsBothDirections(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	a := mustJoin(t, net, types.Reader(1))
	b := mustJoin(t, net, types.Server(1))
	net.HoldPair(a.ID(), b.ID())
	_ = a.Send(b.ID(), "x", nil)
	_ = b.Send(a.ID(), "y", nil)
	if _, ok := recvWithTimeout(t, b, 30*time.Millisecond); ok {
		t.Error("a→b not held")
	}
	if _, ok := recvWithTimeout(t, a, 30*time.Millisecond); ok {
		t.Error("b→a not held")
	}
	if net.HeldCount(a.ID(), b.ID()) != 1 || net.HeldCount(b.ID(), a.ID()) != 1 {
		t.Error("held counts wrong")
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
