package transport

import (
	"testing"
	"time"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// ackArena encodes one acknowledgement into a fresh pooled arena, the way the
// coalescer does, and returns the payload with its one reference.
func ackArena(t *testing.T, rc int64) ([]byte, *wire.Arena) {
	t.Helper()
	payload, a, err := wire.EncodeArena(&wire.Message{Op: wire.OpReadAck, Key: "k", TS: 1, RCounter: rc})
	if err != nil {
		t.Fatal(err)
	}
	return payload, a
}

// wantRefs fails unless the arena holds exactly want references.
func wantRefs(t *testing.T, what string, a *wire.Arena, want int32) {
	t.Helper()
	if got := a.Refs(); got != want {
		t.Errorf("%s: arena holds %d references, want %d", what, got, want)
	}
}

// TestAckArenaEveryDropPath follows an arena-backed acknowledgement to every
// in-memory point where it provably goes nowhere: each must give the arena's
// one reference back — exactly once, so nothing panics — and a message that
// is only parked (held, scheduled) must keep it until its fate is decided.
func TestAckArenaEveryDropPath(t *testing.T) {
	server, reader := types.Server(1), types.Reader(1)
	join := func(t *testing.T, opts ...InMemOption) (*InMemNetwork, *inMemNode, *inMemNode) {
		net := NewInMemNetwork(opts...)
		t.Cleanup(func() { _ = net.Close() })
		return net, mustJoin(t, net, server).(*inMemNode), mustJoin(t, net, reader).(*inMemNode)
	}

	t.Run("discard", func(t *testing.T) {
		_, srv, _ := join(t)
		co := NewCoalescer(srv)
		_ = co.SendMessage(reader, &wire.Message{Op: wire.OpReadAck, Key: "k", RCounter: 1})
		lone := co.byDest[reader].arena
		wantRefs(t, "a lone ack before the run ends", lone, 1)
		// Two acks to one destination: the first one's arena is copied into
		// the envelope's and released on the spot.
		_ = co.SendMessage(types.Reader(2), &wire.Message{Op: wire.OpReadAck, Key: "k", RCounter: 2})
		first := co.byDest[types.Reader(2)].arena
		_ = co.SendMessage(types.Reader(2), &wire.Message{Op: wire.OpReadAck, Key: "k", RCounter: 3})
		wantRefs(t, "a lone ack promoted into an envelope", first, 0)
		co.Discard()
		wantRefs(t, "a discarded lone ack", lone, 0)
		if co.Pending() != 0 {
			t.Fatalf("%d destinations pending after Discard", co.Pending())
		}
	})

	t.Run("closed sender", func(t *testing.T) {
		_, srv, _ := join(t)
		_ = srv.Close()
		payload, a := ackArena(t, 1)
		if err := srv.SendArena(reader, "readack", payload, a); err == nil {
			t.Fatal("a closed node sent")
		}
		wantRefs(t, "an ack from a closed node", a, 0)
	})

	t.Run("closed destination", func(t *testing.T) {
		_, srv, rd := join(t)
		_ = rd.Close()
		payload, a := ackArena(t, 1)
		_ = srv.SendArena(reader, "readack", payload, a)
		wantRefs(t, "an ack to a closed node", a, 0)
	})

	t.Run("crashed destination", func(t *testing.T) {
		net, srv, _ := join(t)
		net.Isolate(reader)
		payload, a := ackArena(t, 1)
		_ = srv.SendArena(reader, "readack", payload, a)
		wantRefs(t, "an ack to a crashed node", a, 0)
	})

	t.Run("held then dropped", func(t *testing.T) {
		net, srv, _ := join(t)
		net.Hold(server, reader)
		payload, a := ackArena(t, 1)
		_ = srv.SendArena(reader, "readack", payload, a)
		wantRefs(t, "a held ack", a, 1)
		net.DropHeld(server, reader)
		wantRefs(t, "a held ack dropped", a, 0)
	})

	t.Run("held to nowhere then released", func(t *testing.T) {
		net, srv, _ := join(t)
		nobody := types.Reader(9)
		net.Hold(server, nobody)
		payload, a := ackArena(t, 1)
		_ = srv.SendArena(nobody, "readack", payload, a)
		net.Release(server, nobody)
		wantRefs(t, "a held ack released to no node", a, 0)
	})

	t.Run("held then delivered", func(t *testing.T) {
		net, srv, rd := join(t)
		net.Hold(server, reader)
		payload, a := ackArena(t, 1)
		_ = srv.SendArena(reader, "readack", payload, a)
		net.Release(server, reader)
		m, ok := recvWithTimeout(t, rd, time.Second)
		if !ok || m.Arena != a {
			t.Fatalf("released ack arrived %v with arena %p, want %p", ok, m.Arena, a)
		}
		wantRefs(t, "a delivered ack before its consumer releases it", a, 1)
		m.ReleaseArena()
		wantRefs(t, "a delivered ack released by its consumer", a, 0)
	})

	t.Run("scheduled on a closing virtual network", func(t *testing.T) {
		clock := NewVirtualClock()
		net, srv, _ := join(t, WithClock(clock))
		payload, a := ackArena(t, 1)
		_ = srv.SendArena(reader, "readack", payload, a)
		_ = net.Close()
		if ran, err := clock.Step(); !ran || err != nil {
			t.Fatalf("the delivery event = (%v, %v), want (true, nil)", ran, err)
		}
		wantRefs(t, "a scheduled ack on a closed network", a, 0)
	})
}
