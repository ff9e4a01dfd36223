package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// encodedMsg builds a distinct encoded protocol message for batching tests.
func encodedMsg(op wire.Op, key string, rc int64) []byte {
	return wire.MustEncode(&wire.Message{Op: op, Key: key, RCounter: rc})
}

func TestExpandSingleAndBatch(t *testing.T) {
	single := Message{From: types.Server(1), To: types.Reader(1), Kind: "readack", Payload: encodedMsg(wire.OpReadAck, "", 1)}
	var got []Message
	Expand(single, func(m Message) { got = append(got, m) })
	if len(got) != 1 || &got[0].Payload[0] != &single.Payload[0] {
		t.Fatalf("single message not passed through untouched: %v", got)
	}

	b := wire.NewBatch(0)
	p1 := encodedMsg(wire.OpReadAck, "a", 1)
	p2 := encodedMsg(wire.OpReadAck, "b", 2)
	b.Append(p1)
	b.Append(p2)
	batched := Message{From: types.Server(2), To: types.Reader(1), Kind: wire.BatchKind, Payload: b.Bytes()}
	got = nil
	Expand(batched, func(m Message) { got = append(got, m) })
	if len(got) != 2 {
		t.Fatalf("batch expanded to %d messages, want 2", len(got))
	}
	for i, m := range got {
		if m.From != batched.From || m.To != batched.To {
			t.Errorf("sub-message %d lost its addressing: %v", i, m)
		}
	}
	k1, _ := wire.PeekKey(got[0].Payload)
	k2, _ := wire.PeekKey(got[1].Payload)
	if k1 != "a" || k2 != "b" {
		t.Errorf("sub-message order/content wrong: keys %q %q", k1, k2)
	}

	// A malformed envelope expands to nothing (dropped, like any
	// undecodable payload).
	bad := Message{Payload: []byte{0xB7, 9, 0, 0, 0}}
	got = nil
	Expand(bad, func(m Message) { got = append(got, m) })
	if len(got) != 0 {
		t.Errorf("malformed envelope yielded %d messages", len(got))
	}
}

// recordingNode captures Sends for coalescer tests.
type recordingNode struct {
	mu    sync.Mutex
	sends []Message
}

func (r *recordingNode) ID() types.ProcessID { return types.Server(1) }
func (r *recordingNode) Send(to types.ProcessID, kind string, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sends = append(r.sends, Message{To: to, Kind: kind, Payload: payload})
	return nil
}
func (r *recordingNode) Inbox() <-chan Message { return nil }
func (r *recordingNode) Close() error          { return nil }

func TestCoalescerSingleMessagePassesThrough(t *testing.T) {
	node := &recordingNode{}
	co := NewCoalescer(node)
	payload := encodedMsg(wire.OpReadAck, "", 7)
	if err := co.Send(types.Reader(1), "readack", payload); err != nil {
		t.Fatal(err)
	}
	co.Flush()
	if len(node.sends) != 1 {
		t.Fatalf("%d sends, want 1", len(node.sends))
	}
	s := node.sends[0]
	// The lone message of a run must leave EXACTLY as a direct send would:
	// same kind, same payload slice, no envelope.
	if s.Kind != "readack" || wire.IsBatch(s.Payload) || &s.Payload[0] != &payload[0] {
		t.Fatalf("single message was wrapped or copied: kind=%q batch=%v", s.Kind, wire.IsBatch(s.Payload))
	}
	if co.Pending() != 0 {
		t.Fatalf("coalescer not reset after flush: %d pending", co.Pending())
	}
}

func TestCoalescerBatchesPerDestination(t *testing.T) {
	node := &recordingNode{}
	co := NewCoalescer(node)
	// Three messages to reader 1, one to reader 2, interleaved.
	_ = co.Send(types.Reader(1), "readack", encodedMsg(wire.OpReadAck, "", 1))
	_ = co.Send(types.Reader(2), "readack", encodedMsg(wire.OpReadAck, "", 9))
	_ = co.Send(types.Reader(1), "readack", encodedMsg(wire.OpReadAck, "", 2))
	_ = co.Send(types.Reader(1), "readack", encodedMsg(wire.OpReadAck, "", 3))
	co.Flush()

	if len(node.sends) != 2 {
		t.Fatalf("%d sends, want 2 (one per destination)", len(node.sends))
	}
	// First-touch order: reader 1 first.
	first, second := node.sends[0], node.sends[1]
	if first.To != types.Reader(1) || second.To != types.Reader(2) {
		t.Fatalf("destinations out of first-touch order: %v then %v", first.To, second.To)
	}
	if !wire.IsBatch(first.Payload) || first.Kind != wire.BatchKind {
		t.Fatal("multi-message destination not batched")
	}
	var rcs []int64
	_ = wire.ForEachInBatch(first.Payload, func(p []byte) error {
		m, err := wire.Decode(p)
		if err != nil {
			return err
		}
		rcs = append(rcs, m.RCounter)
		return nil
	})
	if len(rcs) != 3 || rcs[0] != 1 || rcs[1] != 2 || rcs[2] != 3 {
		t.Fatalf("batched order wrong: %v", rcs)
	}
	if wire.IsBatch(second.Payload) {
		t.Fatal("lone message to reader 2 was wrapped")
	}

	// A payload that is itself a batch splices flat.
	inner := wire.NewBatch(0)
	inner.Append(encodedMsg(wire.OpReadAck, "", 4))
	inner.Append(encodedMsg(wire.OpReadAck, "", 5))
	_ = co.Send(types.Reader(1), "readack", encodedMsg(wire.OpReadAck, "", 6))
	_ = co.Send(types.Reader(1), wire.BatchKind, inner.Bytes())
	co.Flush()
	last := node.sends[len(node.sends)-1]
	n, err := wire.BatchCount(last.Payload)
	if err != nil || n != 3 {
		t.Fatalf("splice produced count %d (%v), want 3 flat messages", n, err)
	}
}

// countingNode counts Sends and keeps the last payload, allocating nothing.
type countingNode struct {
	recordingNode
	sends int
	last  []byte
}

func (c *countingNode) Send(_ types.ProcessID, _ string, payload []byte) error {
	c.sends++
	c.last = payload
	return nil
}

// TestCoalescerRunAllocatesEnvelopeOnce: once a destination has seen one
// batch, a run of k acks to it costs one allocation — the envelope, sized
// from the previous run — and leaves as one send of exactly that size.
func TestCoalescerRunAllocatesEnvelopeOnce(t *testing.T) {
	const k = 16
	node := &countingNode{}
	co := NewCoalescer(node)
	acks := make([][]byte, k)
	for i := range acks {
		acks[i] = encodedMsg(wire.OpReadAck, "key", int64(i+1))
	}
	run := func() {
		for _, ack := range acks {
			_ = co.Send(types.Reader(1), "readack", ack)
		}
		co.Flush()
	}
	run() // warm-up: the destination's entry and its size history
	if allocs := testing.AllocsPerRun(20, run); allocs != 1 {
		t.Errorf("a run of %d acks to one destination allocates %v times, want 1", k, allocs)
	}
	if node.sends != 22 {
		t.Errorf("%d sends over 22 runs, want one each", node.sends)
	}
	if n, err := wire.BatchCount(node.last); err != nil || n != k {
		t.Fatalf("last envelope carries %d messages (%v), want %d", n, err, k)
	}
	if cap(node.last) != len(node.last) {
		t.Errorf("envelope of %d bytes has capacity %d: not sized from the previous run", len(node.last), cap(node.last))
	}
}

// raceEnabled is set by race_test.go in race builds.
var raceEnabled bool

// TestCoalescerRecyclesAckBuffers: over the in-memory network an executor's
// acknowledgement travels in a pooled arena that the client's release hands
// back, so once the pools are warm a request/ack round trip — request sent,
// decoded, acknowledged through the run's coalescer, ack delivered and
// released — allocates nothing. Race builds drop pooled items at random, so
// the count is only checked outside them.
func TestCoalescerRecyclesAckBuffers(t *testing.T) {
	net := NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	srv := mustJoin(t, net, types.Server(1))
	client := mustJoin(t, net, types.Reader(1))

	exec := NewExecutor(srv, nil, 0)
	served := make(chan struct{})
	req, ack := new(wire.Message), new(wire.Message)
	go func() {
		defer close(served)
		exec.RunCoalescing(func(m Message, out Sender) {
			if wire.DecodeInto(req, m.Payload) != nil {
				return
			}
			ack.Fill(wire.Message{Op: wire.OpReadAck, Key: req.Key, TS: 1, RCounter: req.RCounter})
			_ = SendEncoded(out, m.From, ack)
		})
	}()
	acked := make(chan *wire.Arena, 1)
	consumed := runConsume(client, func(m Message) {
		a := m.Arena
		m.ReleaseArena()
		acked <- a
	}, nil)

	request := encodedMsg(wire.OpRead, "k", 1)
	roundTrip := func() {
		_ = client.Send(types.Server(1), "read", request)
		if a := <-acked; a == nil {
			t.Fatal("the ack arrived without an arena")
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs != 0 && !raceEnabled {
		t.Errorf("a steady-state request/ack round trip allocates %v times, want 0", allocs)
	}
	_ = srv.Close()
	_ = client.Close()
	<-served
	<-consumed
}

func TestExecutorRunCoalescingFlushesPerRun(t *testing.T) {
	net := NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	srvNode, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}

	// Echo server: acks every request through the run-scoped sender.
	exec := NewExecutor(srvNode, nil, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		exec.RunCoalescing(func(m Message, out Sender) {
			req, err := wire.Decode(m.Payload)
			if err != nil {
				return
			}
			ack := &wire.Message{Op: wire.OpReadAck, Key: req.Key, RCounter: req.RCounter}
			_ = out.Send(m.From, ack.Kind(), wire.MustEncode(ack))
		})
	}()

	const msgs = 200
	for i := 0; i < msgs; i++ {
		if err := client.Send(types.Server(1), "read", encodedMsg(wire.OpRead, "k", int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Collect all acks (client side expands batches like every consumer).
	got := make(map[int64]bool)
	timeout := time.After(10 * time.Second)
	for len(got) < msgs {
		select {
		case m, ok := <-client.Inbox():
			if !ok {
				t.Fatal("client inbox closed early")
			}
			Expand(m, func(sub Message) {
				ack, err := wire.Decode(sub.Payload)
				if err != nil {
					t.Errorf("undecodable ack: %v", err)
					return
				}
				if got[ack.RCounter] {
					t.Errorf("duplicate ack rc=%d", ack.RCounter)
				}
				got[ack.RCounter] = true
			})
		case <-timeout:
			t.Fatalf("received %d of %d acks", len(got), msgs)
		}
	}
	_ = srvNode.Close()
	<-done
}

// TestInMemBatchingPreservesCrossSenderOrder: a node's consumer takes its
// backlog as one run, and deliveries from different senders keep their
// arrival interleaving within it.
func TestInMemBatchingPreservesCrossSenderOrder(t *testing.T) {
	net := NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	dst, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	senders := make([]Node, 3)
	for i := range senders {
		n, err := net.Join(types.Server(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = n
	}
	// Strict alternation: s1,s2,s3,s1,s2,s3,... sent from one goroutine so
	// arrival order is the send order.
	const rounds = 30
	for r := 0; r < rounds; r++ {
		for i, s := range senders {
			rc := int64(r*len(senders) + i + 1)
			if err := s.Send(types.Reader(1), "m", encodedMsg(wire.OpReadAck, fmt.Sprintf("s%d", i+1), rc)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var rcs []int64
	deadline := time.After(10 * time.Second)
	for len(rcs) < rounds*len(senders) {
		select {
		case m, ok := <-dst.Inbox():
			if !ok {
				t.Fatal("inbox closed early")
			}
			Expand(m, func(sub Message) {
				msg, err := wire.Decode(sub.Payload)
				if err != nil {
					t.Fatalf("undecodable delivery: %v", err)
				}
				rcs = append(rcs, msg.RCounter)
			})
		case <-deadline:
			t.Fatalf("got %d of %d", len(rcs), rounds*len(senders))
		}
	}
	for i, rc := range rcs {
		if rc != int64(i+1) {
			t.Fatalf("global arrival order broken at %d: got rc=%d", i, rc)
		}
	}
}

// TestDemuxRoutesBatchedAcksPerKey: a batch whose messages name DIFFERENT
// registers must be split and routed each to its own key's route.
func TestDemuxRoutesBatchedAcksPerKey(t *testing.T) {
	net := NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}

	keyOf := func(m Message) ([]byte, bool) {
		k, err := wire.PeekKeyView(m.Payload)
		return k, err == nil
	}
	d := NewDemux(client, keyOf, 0)
	t.Cleanup(func() { _ = d.Close() })
	routeA := d.Route("a")
	routeB := d.Route("b")

	b := wire.NewBatch(0)
	b.Append(encodedMsg(wire.OpReadAck, "a", 1))
	b.Append(encodedMsg(wire.OpReadAck, "b", 2))
	b.Append(encodedMsg(wire.OpReadAck, "a", 3))
	if err := srv.Send(types.Reader(1), wire.BatchKind, b.Bytes()); err != nil {
		t.Fatal(err)
	}

	expect := func(route Node, wantRCs ...int64) {
		t.Helper()
		for _, want := range wantRCs {
			select {
			case m := <-route.Inbox():
				msg, err := wire.Decode(m.Payload)
				if err != nil {
					t.Fatalf("undecodable routed message: %v", err)
				}
				if msg.RCounter != want {
					t.Fatalf("route got rc=%d, want %d", msg.RCounter, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("route starved waiting for rc=%d", want)
			}
		}
	}
	expect(routeA, 1, 3)
	expect(routeB, 2)
}

// TestCoalescerDiscardDropsTheRun: nothing of a discarded run is sent, and
// the coalescer is ready for the next one.
func TestCoalescerDiscardDropsTheRun(t *testing.T) {
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	reader := mustJoin(t, net, types.Reader(1))

	co := NewCoalescer(server)
	_ = co.Send(types.Reader(1), "readack", encodedMsg(wire.OpReadAck, "", 1))
	_ = co.Send(types.Reader(1), "readack", encodedMsg(wire.OpReadAck, "", 2))
	_ = co.Send(types.Reader(2), "readack", encodedMsg(wire.OpReadAck, "", 3))
	co.Discard()
	if co.Pending() != 0 {
		t.Fatalf("%d destinations pending after Discard", co.Pending())
	}
	co.Flush()
	select {
	case m := <-reader.Inbox():
		t.Fatalf("a discarded message was delivered: %q", m.Kind)
	default:
	}
}

// TestInMemDeliveredMsgsCountsEnvelopeMessages: a server's coalescer flushes
// three acks to one in-memory client as one envelope, and the network counts
// the three messages it carries, as the socket carriers do, in one frame.
func TestInMemDeliveredMsgsCountsEnvelopeMessages(t *testing.T) {
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	mustJoin(t, net, types.Reader(1))

	co := NewCoalescer(server)
	for rc := int64(1); rc <= 3; rc++ {
		_ = co.Send(types.Reader(1), "readack", encodedMsg(wire.OpReadAck, "k", rc))
	}
	co.Flush()
	if st := net.Stats(); st.DeliveredMsgs != 3 || st.FramesDelivered != 1 {
		t.Fatalf("DeliveredMsgs = %d in %d frames; want the envelope's 3 messages in 1 delivery", st.DeliveredMsgs, st.FramesDelivered)
	}
}

// TestInMemDropCountsEnvelopeMessages is the routing half of the same rule: a
// coalesced ack envelope dropped on its way to an isolated reader counts its
// messages in InboundDrops, as the reader's queue would have counted them.
func TestInMemDropCountsEnvelopeMessages(t *testing.T) {
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	mustJoin(t, net, types.Reader(1))
	net.Isolate(types.Reader(1))

	co := NewCoalescer(server)
	for rc := int64(1); rc <= 3; rc++ {
		_ = co.Send(types.Reader(1), "readack", encodedMsg(wire.OpReadAck, "k", rc))
	}
	co.Flush()
	if st := net.Stats(); st.InboundDrops != 3 || st.DeliveredMsgs != 0 {
		t.Fatalf("InboundDrops = %d, DeliveredMsgs = %d; want the dropped envelope's 3 messages and no delivery", st.InboundDrops, st.DeliveredMsgs)
	}
}
