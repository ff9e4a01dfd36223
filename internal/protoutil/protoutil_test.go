package protoutil

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/quorum"
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

// gathered is what the test engine's reads resolve with: who acknowledged,
// with which timestamp.
type gathered struct {
	From []types.ProcessID
	TS   []types.Timestamp
}

// gatherClient builds the smallest engine client on node: one depth-one round
// asking every server and resolving with the quorum it collected — the
// blocking RoundTrip/CollectAcks helpers of old, spelled as a round
// description. Its first operation carries rCounter firstRC.
func gatherClient(t *testing.T, node transport.Node, servers, need int, firstRC int64) (*Client[gathered], error) {
	t.Helper()
	cfg := ClientConfig{Quorum: quorum.Config{Servers: servers}, Depth: 1}
	return NewClient(cfg, node, Rounds[gathered]{
		Name: "test gather", Role: types.RoleReader, Need: need, Nonce: firstRC - 1,
		Begin: func(c *Call[gathered]) error {
			c.Req = wire.Message{Op: wire.OpRead, RCounter: c.NextNonce()}
			return nil
		},
		Finish: func(c *Call[gathered], acks []Ack) (bool, error) {
			for _, a := range acks {
				c.Result.From = append(c.Result.From, a.From)
				c.Result.TS = append(c.Result.TS, a.Msg.TS)
			}
			return false, nil
		},
	})
}

func TestRoundTripCollectsQuorum(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()

	for i, s := range ServerIDs(4) {
		startAckServer(t, net, s, wire.OpReadAck, types.Timestamp(i+1))
	}
	node, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := gatherClient(t, node, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := client.Do(ctx, nil)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(got.From) != 3 {
		t.Fatalf("got %d acks, want 3", len(got.From))
	}
	seen := map[types.ProcessID]bool{}
	for _, from := range got.From {
		if seen[from] {
			t.Errorf("duplicate ack from %v", from)
		}
		seen[from] = true
	}
	if ops, trips := client.Stats(); ops != 1 || trips != 1 {
		t.Errorf("Stats = %d ops, %d round-trips, want 1, 1", ops, trips)
	}
}

func TestCollectAcksFiltersAndDeduplicates(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	node, err := net.Join(types.Reader(1))
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
	client, err := gatherClient(t, node, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	f, err := client.Submit(ctx, nil)
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
	// (rejected by the acceptance rule), duplicate from the same server.
	send(other, &wire.Message{Op: wire.OpReadAck, RCounter: 5})
	_ = srvNode.Send(client.ID(), "junk", []byte{0xFF, 0x01})
	send(srvNode, &wire.Message{Op: wire.OpReadAck, RCounter: 4})
	send(srvNode, &wire.Message{Op: wire.OpReadAck, RCounter: 5})
	send(srvNode, &wire.Message{Op: wire.OpReadAck, RCounter: 5, TS: 9})
	send(srv2, &wire.Message{Op: wire.OpReadAck, RCounter: 5, TS: 2})

	got, err := f.Result(ctx)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(got.From) != 2 {
		t.Fatalf("got %d acks, want 2", len(got.From))
	}
	if got.From[0] == got.From[1] {
		t.Error("duplicate server counted twice")
	}
	// The accepted ack from s1 must be its first valid one (rCounter 5, TS 0).
	for i, from := range got.From {
		if from == types.Server(1) && got.TS[i] != 0 {
			t.Errorf("expected first valid ack from s1 (TS=0), got TS=%d", got.TS[i])
		}
	}
}

func TestCollectAcksContextCancelled(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	node, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := gatherClient(t, node, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err = client.Do(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to wrap DeadlineExceeded", err)
	}
	if ops, trips := client.Stats(); ops != 0 || trips != 0 {
		t.Errorf("Stats after an interrupted operation = %d, %d, want 0, 0", ops, trips)
	}
}

// TestDoAbortsTheRoundInFlight: a blocking operation waits on its pooled Call,
// and a context that ends during its SECOND round aborts that round — the one
// the Call has moved on to — after which the handle's one slot and the Call
// serve the next operation.
func TestDoAbortsTheRoundInFlight(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	startAckServer(t, net, types.Server(1), wire.OpReadAck, 1)
	node, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	// A non-nil argument asks for a second round, a write the server answers
	// with a read ack, which never matches.
	client, err := NewClient(ClientConfig{Quorum: quorum.Config{Servers: 1}, Depth: 1}, node, Rounds[int]{
		Name: "test two-round", Role: types.RoleReader, Need: 1,
		Begin: Ask[int](wire.OpRead, ""),
		Finish: func(c *Call[int], _ []Ack) (bool, error) {
			if c.Round == 1 && c.Arg != nil {
				c.Req = wire.Message{Op: wire.OpWrite, TS: 1, RCounter: c.Req.RCounter}
				return true, nil
			}
			c.Result = c.Round
			return false, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.Do(ctx, types.Value("two rounds")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to wrap DeadlineExceeded", err)
	}
	if ops, trips := client.Stats(); ops != 0 || trips != 1 {
		t.Errorf("Stats = %d ops, %d round-trips, want 0, 1", ops, trips)
	}
	later, cancelLater := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelLater()
	for i := 0; i < 3; i++ {
		if rounds, err := client.Do(later, nil); err != nil || rounds != 1 {
			t.Fatalf("operation %d after the abort = %d rounds, %v; want 1, nil", i, rounds, err)
		}
	}
}

func TestCollectAcksInboxClosed(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	node, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := gatherClient(t, node, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = client.Close()
	}()
	if _, err = client.Do(context.Background(), nil); !errors.Is(err, ErrInboxClosed) {
		t.Errorf("err = %v, want ErrInboxClosed", err)
	}
}

// TestCollectAcksZeroNeed pins the rule for a quorum of nothing: the pipeline
// completes it at once with no acknowledgements (it must never wait for one),
// and the client engine refuses to be built around such a round.
func TestCollectAcksZeroNeed(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	node, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(node, 1, nil)
	for _, need := range []int{0, -1} {
		if err := p.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			acks int
			err  error
		}
		done := make(chan outcome, 1)
		p.Register(need, nil, func(acks []Ack, err error) { done <- outcome{len(acks), err} })
		select {
		case got := <-done:
			if got.err != nil || got.acks != 0 {
				t.Errorf("need=%d completed with %d acks, %v; want none, nil", need, got.acks, got.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("need=%d waited for an acknowledgement", need)
		}
	}
	// Both slots came back: the depth-one pipeline admits another operation.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Acquire(ctx); err != nil {
		t.Fatalf("slot not released after a zero-need completion: %v", err)
	}
	if _, err := gatherClient(t, node, 1, 0, 1); err == nil {
		t.Error("NewClient accepted a round needing 0 acknowledgements")
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
	if err := broadcast(client, ServerIDs(2), bad); err == nil {
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

	// The engine's own acknowledgement filter, before any protocol's: the
	// request's acknowledgement op, on its key, echoing its rCounter.
	c := &Call[gathered]{cl: &Client[gathered]{}, ack: wire.OpReadAck}
	c.Req = wire.Message{Op: wire.OpRead, Key: "k", RCounter: 7}
	for _, tc := range []struct {
		m    wire.Message
		want bool
	}{
		{wire.Message{Op: wire.OpReadAck, Key: "k", RCounter: 7, TS: 99}, true},
		{wire.Message{Op: wire.OpWriteAck, Key: "k", RCounter: 7}, false},
		{wire.Message{Op: wire.OpReadAck, Key: "other", RCounter: 7}, false},
		{wire.Message{Op: wire.OpReadAck, Key: "k", RCounter: 6}, false},
	} {
		if got := c.accept(types.Server(1), &tc.m); got != tc.want {
			t.Errorf("Accept(%s key=%q rc=%d) = %v, want %v", tc.m.Op, tc.m.Key, tc.m.RCounter, got, tc.want)
		}
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

// TestReaderStatsCountFallbacks pins the counting that moved from the fast
// reader into the shared one: Stats reports as fallbacks exactly the reads
// that RESOLVED with UsedFallback, so a read aborted mid-round — whose Finish
// never ran — counts as neither a read nor a fallback.
func TestReaderStatsCountFallbacks(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	var mute atomic.Bool
	for _, id := range ServerIDs(3) {
		node, err := net.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		go serve(node, func(m transport.Message) {
			req, err := wire.Decode(m.Payload)
			if err != nil || mute.Load() {
				return
			}
			ack := &wire.Message{Op: wire.OpReadAck, RCounter: req.RCounter}
			_ = node.Send(m.From, ack.Kind(), wire.MustEncode(ack))
		})
	}
	node, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	r, err := NewReader(ClientConfig{Quorum: quorum.Config{Servers: 3, Faulty: 1, Readers: 1}}, node, Rounds[ReadResult]{
		Name: "test read", Need: 2, Begin: Ask[ReadResult](wire.OpRead, ""),
		Finish: func(c *Call[ReadResult], _ []Ack) (bool, error) {
			finished++
			c.Result = ReadResult{RoundTrips: 1, UsedFallback: finished%2 == 0}
			return false, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i <= 6; i++ {
		if i == 4 {
			mute.Store(true)
			aborted, abort := context.WithCancel(ctx)
			f, err := r.ReadAsync(aborted)
			if err != nil {
				t.Fatal(err)
			}
			abort()
			if _, err := f.Result(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("aborted read resolved with %v, want context.Canceled", err)
			}
			mute.Store(false)
		}
		res, err := r.Read(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want := i%2 == 0; res.UsedFallback != want {
			t.Errorf("read %d: UsedFallback = %v, want %v", i, res.UsedFallback, want)
		}
	}
	if reads, trips, fallbacks := r.Stats(); reads != 6 || trips != 6 || fallbacks != 3 {
		t.Errorf("Stats = %d reads, %d round-trips, %d fallbacks; want 6, 6, 3", reads, trips, fallbacks)
	}
}
