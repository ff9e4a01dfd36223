package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"fastread/internal/core"
	"fastread/internal/quorum"
	"fastread/internal/transport/framed"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// encodeFrame builds one wire frame as a standalone byte slice: the uint32
// body length, then the framed body. The send path patches this header into
// a pending batch in place (frameBytes) and never materialises a frame; this
// reference encoding documents the layout readFrameArena expects.
func encodeFrame(from types.ProcessID, kind string, payload []byte) []byte {
	body := framed.AppendBody(nil, from, kind, payload)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func TestFrameRoundTrip(t *testing.T) {
	frame := encodeFrame(types.Reader(7), "readack", []byte{1, 2, 3})
	from, kind, payload, arena, err := readFrameArena(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer arena.Release()
	if from != types.Reader(7) || kind != "readack" || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Errorf("round trip mismatch: %v %q %v", from, kind, payload)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	rejects := func(what string, data []byte) {
		t.Helper()
		if _, _, payload, arena, err := readFrameArena(bytes.NewReader(data)); err == nil || arena != nil || payload != nil {
			t.Errorf("%s: err=%v arena=%v payload=%v, want an error and nothing handed out", what, err, arena, payload)
		}
	}
	rejects("truncated length prefix", []byte{0, 0})
	frame := encodeFrame(types.Writer(), "k", []byte("data"))
	rejects("body shorter than advertised", frame[:len(frame)-2])
	bad := append([]byte(nil), frame...)
	bad[4] = 99
	rejects("invalid sender role", bad)
	huge := make([]byte, 8)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF
	rejects("oversized frame length", huge)
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen(framed.Config{Self: types.ProcessID{}}); err == nil {
		t.Error("invalid identity accepted")
	}
	if _, err := Listen(framed.Config{Self: types.Server(1)}); err == nil {
		t.Error("missing address accepted")
	}
}

// TestFastRegisterOverTCP runs the paper's fast register end to end over
// loopback TCP: the protocols only see transport.Node, so the crash-model
// algorithm must behave exactly as it does in memory.
func TestFastRegisterOverTCP(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	ids := []types.ProcessID{types.Writer(), types.Reader(1)}
	for i := 1; i <= cfg.Servers; i++ {
		ids = append(ids, types.Server(i))
	}
	nodes, _, err := LocalCluster(ids)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	for i := 1; i <= cfg.Servers; i++ {
		srv, err := core.NewServer(core.ServerConfig{ID: types.Server(i), Readers: cfg.Readers}, nodes[types.Server(i)])
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		defer srv.Stop()
	}
	writer, err := core.NewWriter(core.WriterConfig{Quorum: cfg}, nodes[types.Writer()])
	if err != nil {
		t.Fatal(err)
	}
	reader, err := core.NewReader(core.ReaderConfig{Quorum: cfg}, nodes[types.Reader(1)])
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		value := types.Value([]byte{byte('a' + i)})
		if err := writer.Write(ctx, value); err != nil {
			t.Fatalf("write %d over TCP: %v", i, err)
		}
		res, err := reader.Read(ctx)
		if err != nil {
			t.Fatalf("read %d over TCP: %v", i, err)
		}
		if !res.Value.Equal(value) {
			t.Fatalf("read %d returned %s, want %s", i, res.Value, value)
		}
		if res.RoundTrips != 1 {
			t.Fatalf("read %d used %d round trips", i, res.RoundTrips)
		}
	}
}

// TestConcurrentSendersDoNotInterleaveFrames is the regression test for the
// frame-interleaving hazard: before the per-peer writer, two goroutines
// calling Send to the same peer could interleave partial conn.Writes and
// corrupt the stream. Large payloads force the old code's single conn.Write
// into multiple TCP segments, making corruption near-certain; with the
// per-peer serialised writer every frame must arrive intact and decodable.
func TestConcurrentSendersDoNotInterleaveFrames(t *testing.T) {
	nodes, _, err := LocalCluster([]types.ProcessID{types.Reader(1), types.Server(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	sender := nodes[types.Reader(1)]
	receiver := nodes[types.Server(1)]

	// 32 KiB payloads span many TCP segments (so the old unserialised code
	// path would interleave partial writes) while the whole burst stays
	// under the peer's bounded write queue — no frame may be dropped.
	const (
		senders     = 8
		perSender   = 16
		payloadSize = 32 << 10
	)

	// Each sender stamps its payload with (sender, seq) and fills the rest
	// with a sender-specific byte so any interleaving is detectable.
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('A' + g)}, payloadSize)
			for i := 0; i < perSender; i++ {
				payload[0], payload[1] = byte(g), byte(i)
				if err := sender.Send(types.Server(1), "blob", payload); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	got := make(map[[2]byte]bool)
	deadline := time.After(20 * time.Second)
	for len(got) < senders*perSender {
		select {
		case msg := <-receiver.Inbox():
			if len(msg.Payload) != payloadSize {
				t.Fatalf("corrupted frame: kind=%q len=%d", msg.Kind, len(msg.Payload))
			}
			g, i := msg.Payload[0], msg.Payload[1]
			fill := byte('A' + g)
			for j := 2; j < payloadSize; j++ {
				if msg.Payload[j] != fill {
					t.Fatalf("payload of sender %d message %d corrupted at offset %d: %x != %x",
						g, i, j, msg.Payload[j], fill)
				}
			}
			got[[2]byte{g, i}] = true
		case <-deadline:
			t.Fatalf("received only %d of %d messages", len(got), senders*perSender)
		}
	}
	if s := sender.Stats(); s.SendDrops != 0 {
		t.Errorf("sender dropped %d frames; burst should fit the write queue", s.SendDrops)
	}
}

// TestBatchedWritesCoalesceAndDeliverInOrder checks that the coalescing
// writer preserves per-link FIFO order for back-to-back small frames.
func TestBatchedWritesCoalesceAndDeliverInOrder(t *testing.T) {
	nodes, _, err := LocalCluster([]types.ProcessID{types.Writer(), types.Server(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	const msgs = 500
	for i := 0; i < msgs; i++ {
		if err := nodes[types.Writer()].Send(types.Server(1), "seq", []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		select {
		case msg := <-nodes[types.Server(1)].Inbox():
			if got := int(msg.Payload[0]) | int(msg.Payload[1])<<8; got != i {
				t.Fatalf("message %d arrived out of order (got seq %d)", i, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never delivered", i)
		}
	}
	if s := nodes[types.Server(1)].Stats(); s.DeliveredMsgs != msgs {
		t.Errorf("receiver DeliveredMsgs = %d, want %d", s.DeliveredMsgs, msgs)
	}
}

// TestDropCountersVisible checks that silently dropped traffic shows up in
// the node's transport.Stats: sends to unreachable peers (SendDrops) and
// inbound messages the full inbound queue refused (InboundDrops).
func TestDropCountersVisible(t *testing.T) {
	nodes, _, err := LocalCluster([]types.ProcessID{types.Reader(1), types.Server(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	client := nodes[types.Reader(1)]
	receiver := nodes[types.Server(1)]

	// Unreachable peer → SendDrops.
	if err := client.Send(types.Server(9), "x", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if s := client.Stats(); s.SendDrops != 1 {
		t.Errorf("SendDrops = %d, want 1", s.SendDrops)
	}

	// Overflow the receiver's mailbox (capacity 1024, nobody draining) →
	// InboundDrops on the receiver.
	const flood = 2000
	for i := 0; i < flood; i++ {
		if err := client.Send(types.Server(1), "flood", []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	ok := false
	for wait := 0; wait < 200; wait++ {
		s := receiver.Stats()
		if s.DeliveredMsgs+s.InboundDrops == flood && s.InboundDrops > 0 {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		s := receiver.Stats()
		t.Errorf("flood not accounted for: delivered=%d inboundDrops=%d (want sum %d with drops > 0)",
			s.DeliveredMsgs, s.InboundDrops, flood)
	}
}

// TestRestartedPeerReachableOnFirstOperation is the regression test for the
// stale-connection refresh: when a process dies and a new incarnation comes
// up on the same address book entry, the first request it sends must get a
// reply — the receiving node evicts the idle cached connection to the old
// incarnation when the new one's first frame arrives, instead of writing the
// reply into a dead socket and leaving the client to time out.
func TestRestartedPeerReachableOnFirstOperation(t *testing.T) {
	nodes, book, err := LocalCluster([]types.ProcessID{types.Server(1), types.Writer()})
	if err != nil {
		t.Fatal(err)
	}
	server := nodes[types.Server(1)]
	defer server.Close()

	// The server echoes every request back to its sender, like a protocol
	// server acking.
	go func() {
		for msg := range server.Inbox() {
			_ = server.Send(msg.From, "ack", msg.Payload)
		}
	}()

	roundTrip := func(client *Node, payload string) error {
		if err := client.Send(types.Server(1), "req", []byte(payload)); err != nil {
			return err
		}
		select {
		case msg := <-client.Inbox():
			if string(msg.Payload) != payload {
				return fmt.Errorf("unexpected reply %v", msg)
			}
			return nil
		case <-time.After(3 * time.Second):
			return fmt.Errorf("no ack for %q", payload)
		}
	}

	client := nodes[types.Writer()]
	if err := roundTrip(client, "first-incarnation"); err != nil {
		t.Fatal(err)
	}
	// The first incarnation dies; the server now holds a cached outbound
	// connection to a dead process.
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	// A new incarnation binds the SAME address book entry.
	client2, err := Listen(framed.Config{Self: types.Writer(), ListenAddr: book[types.Writer()], Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	if err := roundTrip(client2, "second-incarnation"); err != nil {
		t.Fatalf("restarted peer not reachable on first operation: %v", err)
	}
}

// TestSerialRoundTripsReuseConnections guards the eviction heuristic from
// the other side: a peer's FIRST inbound connection is normal reply traffic
// and must NOT evict the cached outbound connection, otherwise every serial
// round-trip tears down and re-dials both directions forever (connection
// churn + TIME_WAIT buildup).
func TestSerialRoundTripsReuseConnections(t *testing.T) {
	nodes, _, err := LocalCluster([]types.ProcessID{types.Server(1), types.Writer()})
	if err != nil {
		t.Fatal(err)
	}
	server := nodes[types.Server(1)]
	client := nodes[types.Writer()]
	defer server.Close()
	defer client.Close()

	go func() {
		for msg := range server.Inbox() {
			_ = server.Send(msg.From, "ack", msg.Payload)
		}
	}()

	roundTrip := func(i int) {
		t.Helper()
		if err := client.Send(types.Server(1), "req", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-client.Inbox():
		case <-time.After(3 * time.Second):
			t.Fatalf("no ack for round-trip %d", i)
		}
	}

	roundTrip(0)
	client.mu.Lock()
	firstOutbound := client.peers[types.Server(1)]
	client.mu.Unlock()
	if firstOutbound == nil {
		t.Fatal("no cached outbound peer after first round-trip")
	}
	server.mu.Lock()
	firstReply := server.peers[types.Writer()]
	server.mu.Unlock()
	if firstReply == nil {
		t.Fatal("no cached reply peer after first round-trip")
	}

	for i := 1; i <= 10; i++ {
		roundTrip(i)
	}

	client.mu.Lock()
	lastOutbound := client.peers[types.Server(1)]
	client.mu.Unlock()
	server.mu.Lock()
	lastReply := server.peers[types.Writer()]
	server.mu.Unlock()
	if lastOutbound != firstOutbound {
		t.Error("client re-dialled the server during serial round-trips (connection churn)")
	}
	if lastReply != firstReply {
		t.Error("server re-dialled the client during serial round-trips (connection churn)")
	}
}

// TestRestartedPeerEvictsBusyConnection covers the force path of the
// eviction: when the previous incarnation's inbound connection has died, the
// cached outbound connection is evicted even if frames are still queued on
// it — they are addressed to a dead process and must surface as send drops,
// and the restarted peer's first operation must still get its reply.
func TestRestartedPeerEvictsBusyConnection(t *testing.T) {
	nodes, book, err := LocalCluster([]types.ProcessID{types.Server(1), types.Writer()})
	if err != nil {
		t.Fatal(err)
	}
	server := nodes[types.Server(1)]
	defer server.Close()
	go func() {
		for msg := range server.Inbox() {
			_ = server.Send(msg.From, "ack", msg.Payload)
		}
	}()

	client := nodes[types.Writer()]
	if err := client.Send(types.Server(1), "req", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-client.Inbox():
	case <-time.After(3 * time.Second):
		t.Fatal("no ack in warm-up round-trip")
	}
	_ = client.Close()

	// Wait until the server has processed the old incarnation's EOF, so the
	// new connection deterministically takes the restart (force) path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		server.mu.Lock()
		dead := server.deadInbound[types.Writer()]
		server.mu.Unlock()
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never noticed the old incarnation's EOF")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Make the cached (now dead) connection BUSY: queue frames on it without
	// kicking the flusher, as a mid-burst failure would.
	server.mu.Lock()
	stale := server.peers[types.Writer()]
	server.mu.Unlock()
	if stale == nil {
		t.Fatal("no cached outbound peer to the old incarnation")
	}
	stale.mu.Lock()
	busy := wire.NewBatch(batchFrameHeaderSize)
	for i := 0; i < 3; i++ {
		busy.Append(make([]byte, 64))
	}
	stale.queue = append(stale.queue, busy)
	stale.pendingBytes += busy.Size()
	stale.pendingMsgs += busy.Count()
	stale.mu.Unlock()
	dropsBefore := server.Stats().SendDrops

	client2, err := Listen(framed.Config{Self: types.Writer(), ListenAddr: book[types.Writer()], Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	if err := client2.Send(types.Server(1), "req", []byte("y")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-client2.Inbox():
		if string(msg.Payload) != "y" {
			t.Fatalf("unexpected reply %v", msg)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("restarted peer with busy stale connection got no reply on first operation")
	}
	if drops := server.Stats().SendDrops; drops < dropsBefore+3 {
		t.Errorf("queued frames to the dead incarnation not surfaced as drops: %d -> %d", dropsBefore, drops)
	}
}

// TestDeferredEvictionAfterLateEOF drives the remaining ordering of the
// restart race directly through the attribution state machine: the restarted
// peer's new connection arrives BEFORE the old connection's EOF is processed
// and the cached outbound connection is busy, so the eviction is declined
// and remembered; the old EOF must then finish it (and surface the queued
// frames as drops), rather than losing the restart signal.
func TestDeferredEvictionAfterLateEOF(t *testing.T) {
	nodes, _, err := LocalCluster([]types.ProcessID{types.Server(1), types.Writer()})
	if err != nil {
		t.Fatal(err)
	}
	server := nodes[types.Server(1)]
	client := nodes[types.Writer()]
	defer server.Close()
	defer client.Close()

	// Establish the server's cached outbound connection to the writer.
	go func() {
		for msg := range server.Inbox() {
			_ = server.Send(msg.From, "ack", msg.Payload)
		}
	}()
	if err := client.Send(types.Server(1), "req", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-client.Inbox():
	case <-time.After(3 * time.Second):
		t.Fatal("no ack in warm-up round-trip")
	}

	server.mu.Lock()
	stale := server.peers[types.Writer()]
	server.mu.Unlock()
	if stale == nil {
		t.Fatal("no cached outbound peer")
	}
	// Busy: frames queued, flusher not kicked (as mid-burst).
	stale.mu.Lock()
	busy := wire.NewBatch(batchFrameHeaderSize)
	for i := 0; i < 3; i++ {
		busy.Append(make([]byte, 64))
	}
	stale.queue = append(stale.queue, busy)
	stale.pendingBytes += busy.Size()
	stale.pendingMsgs += busy.Count()
	stale.mu.Unlock()
	dropsBefore := server.Stats().SendDrops

	// The real warm-up already counted one live inbound connection from the
	// writer. Simulate the restarted incarnation's connection announcing
	// itself FIRST (EOF of the old one not yet seen): busy + redialled →
	// eviction declined but remembered.
	server.noteInboundSender(types.Writer())
	server.mu.Lock()
	stillCached := server.peers[types.Writer()] == stale
	remembered := server.pendingRefresh[types.Writer()] == stale
	server.mu.Unlock()
	if !stillCached || !remembered {
		t.Fatalf("declined eviction not remembered: cached=%v remembered=%v", stillCached, remembered)
	}

	// The old connection's EOF arrives late and must finish the eviction.
	server.noteInboundGone(types.Writer())
	server.mu.Lock()
	evicted := server.peers[types.Writer()] == nil
	server.mu.Unlock()
	if !evicted {
		t.Fatal("late EOF did not evict the remembered stale connection")
	}
	if drops := server.Stats().SendDrops; drops < dropsBefore+3 {
		t.Errorf("queued frames not surfaced as drops: %d -> %d", dropsBefore, drops)
	}
}
