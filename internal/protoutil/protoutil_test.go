package protoutil

import (
	"context"
	"errors"
	"testing"
	"time"

	"fastread/internal/trace"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// startAckServer joins the network as the given server and replies to every
// incoming message with an ack of the supplied op and timestamp.
func startAckServer(t *testing.T, net transport.Network, id types.ProcessID, op wire.Op, ts types.Timestamp) {
	t.Helper()
	node, err := net.Join(id)
	if err != nil {
		t.Fatalf("join %v: %v", id, err)
	}
	go serve(node, func(m transport.Message) {
		req, err := wire.Decode(m.Payload)
		if err != nil {
			return
		}
		ack := &wire.Message{Op: op, TS: ts, RCounter: req.RCounter}
		_ = node.Send(m.From, ack.Kind(), wire.MustEncode(ack))
	})
	t.Cleanup(func() { _ = node.Close() })
}

func TestRoundTripCollectsQuorum(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()

	servers := ServerIDs(4)
	for i, s := range servers {
		startAckServer(t, net, s, wire.OpReadAck, types.Timestamp(i+1))
	}
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req := &wire.Message{Op: wire.OpRead, RCounter: 1}
	acks, err := RoundTrip(ctx, client, servers, req, 3, nil, trace.New())
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if len(acks) != 3 {
		t.Fatalf("got %d acks, want 3", len(acks))
	}
	seen := map[types.ProcessID]bool{}
	for _, a := range acks {
		if seen[a.From] {
			t.Errorf("duplicate ack from %v", a.From)
		}
		seen[a.From] = true
	}
}

func TestCollectAcksFiltersAndDeduplicates(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	srvNode, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := net.Join(types.Server(2))
	if err != nil {
		t.Fatal(err)
	}
	other, err := net.Join(types.Reader(2))
	if err != nil {
		t.Fatal(err)
	}

	send := func(node transport.Node, msg *wire.Message) {
		t.Helper()
		if err := node.Send(client.ID(), msg.Kind(), wire.MustEncode(msg)); err != nil {
			t.Fatal(err)
		}
	}
	// Noise: from a reader (ignored), malformed payload, stale rCounter
	// (rejected by the filter), duplicate from the same server.
	_ = other.Send(client.ID(), "readack", wire.MustEncode(&wire.Message{Op: wire.OpReadAck, RCounter: 5}))
	_ = srvNode.Send(client.ID(), "junk", []byte{0xFF, 0x01})
	send(srvNode, &wire.Message{Op: wire.OpReadAck, RCounter: 4})
	send(srvNode, &wire.Message{Op: wire.OpReadAck, RCounter: 5})
	send(srvNode, &wire.Message{Op: wire.OpReadAck, RCounter: 5, TS: 9})
	send(srv2, &wire.Message{Op: wire.OpReadAck, RCounter: 5, TS: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	filter := func(_ types.ProcessID, m *wire.Message) bool { return m.RCounter == 5 }
	acks, err := CollectAcks(ctx, client, 2, filter, trace.New())
	if err != nil {
		t.Fatalf("CollectAcks: %v", err)
	}
	if len(acks) != 2 {
		t.Fatalf("got %d acks, want 2", len(acks))
	}
	if acks[0].From == acks[1].From {
		t.Error("duplicate server counted twice")
	}
	// The first accepted ack from s1 must be the first valid one (rCounter 5).
	for _, a := range acks {
		if a.From == types.Server(1) && a.Msg.TS != 0 {
			t.Errorf("expected first valid ack from s1 (TS=0), got TS=%d", a.Msg.TS)
		}
	}
}

func TestCollectAcksContextCancelled(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = CollectAcks(ctx, client, 1, nil, nil)
	if !errors.Is(err, ErrInterrupted) {
		t.Errorf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to wrap DeadlineExceeded", err)
	}
}

func TestCollectAcksInboxClosed(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = client.Close()
	}()
	_, err = CollectAcks(context.Background(), client, 1, nil, nil)
	if !errors.Is(err, ErrInboxClosed) {
		t.Errorf("err = %v, want ErrInboxClosed", err)
	}
}

func TestCollectAcksZeroNeed(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	acks, err := CollectAcks(context.Background(), client, 0, nil, nil)
	if err != nil || len(acks) != 0 {
		t.Errorf("zero-need collect = %v, %v", acks, err)
	}
}

func TestBroadcastEncodeError(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	client, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	bad := &wire.Message{Op: 0}
	if err := Broadcast(client, ServerIDs(2), bad, nil); err == nil {
		t.Error("Broadcast with invalid message succeeded")
	}
}

func TestServerAndReaderIDs(t *testing.T) {
	s := ServerIDs(3)
	if len(s) != 3 || s[0] != types.Server(1) || s[2] != types.Server(3) {
		t.Errorf("ServerIDs = %v", s)
	}
	r := ReaderIDs(2)
	if len(r) != 2 || r[0] != types.Reader(1) || r[1] != types.Reader(2) {
		t.Errorf("ReaderIDs = %v", r)
	}
	if len(ServerIDs(0)) != 0 {
		t.Error("ServerIDs(0) should be empty")
	}
}

func TestMaxTimestampAndFilter(t *testing.T) {
	acks := []Ack{
		{From: types.Server(1), Msg: &wire.Message{Op: wire.OpReadAck, TS: 3}},
		{From: types.Server(2), Msg: &wire.Message{Op: wire.OpReadAck, TS: 7}},
		{From: types.Server(3), Msg: &wire.Message{Op: wire.OpReadAck, TS: 7}},
		{From: types.Server(4), Msg: &wire.Message{Op: wire.OpReadAck, TS: 1}},
	}
	ts, best, ok := MaxTimestamp(acks)
	if !ok || ts != 7 || best.Msg.TS != 7 {
		t.Errorf("MaxTimestamp = %v %v %v", ts, best, ok)
	}
	if _, _, ok := MaxTimestamp(nil); ok {
		t.Error("MaxTimestamp on empty should report !ok")
	}
	filtered := FilterByTimestamp(acks, 7)
	if len(filtered) != 2 {
		t.Errorf("FilterByTimestamp returned %d acks, want 2", len(filtered))
	}
	if len(FilterByTimestamp(acks, 99)) != 0 {
		t.Error("FilterByTimestamp(99) should be empty")
	}
}

// serve hands every protocol message delivered to node to handler, on one
// goroutine, until the node is closed.
func serve(node transport.Node, handler func(transport.Message)) {
	for msg := range node.Inbox() {
		transport.Expand(msg, handler)
		msg.ReleaseArena()
	}
}
