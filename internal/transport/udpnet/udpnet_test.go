package udpnet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/types"
	"fastread/internal/wire"
)

func testIDs() (types.ProcessID, types.ProcessID) {
	return types.ProcessID{Role: types.RoleServer, Index: 1}, types.ProcessID{Role: types.RoleServer, Index: 2}
}

// recvOne waits for one inbox message with a deadline.
func recvOne(t *testing.T, n *Node) transport.Message {
	t.Helper()
	select {
	case m := <-n.Inbox():
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("no message delivered to %v", n.ID())
		return transport.Message{}
	}
}

// TestUDPChunkedOversizedBatch sends a batch envelope too large for one
// datagram and expects every message to arrive, split across datagrams.
func TestUDPChunkedOversizedBatch(t *testing.T) {
	a, b := testIDs()
	nodes, _, err := LocalCluster([]types.ProcessID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	entry := bytes.Repeat([]byte("x"), 1000)
	batch := wire.NewBatch(0)
	const msgs = 70 // ~70 KB envelope > maxPayloadSize
	for i := 0; i < msgs; i++ {
		batch.Append(entry)
	}
	if len(batch.Bytes()) <= maxPayloadSize {
		t.Fatalf("test envelope not oversized (%d bytes)", len(batch.Bytes()))
	}
	if err := nodes[a].Send(b, wire.BatchKind, batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		m := recvOne(t, nodes[b])
		if !bytes.Equal(m.Payload, entry) {
			t.Fatalf("entry %d corrupted (%d bytes)", i, len(m.Payload))
		}
		m.ReleaseArena()
	}
	if st := nodes[b].Stats(); st.Frames < 2 {
		t.Fatalf("oversized envelope arrived in %d frame(s), want several", st.Frames)
	}
}

// TestUDPDedupWindow drives the at-most-once window through advances,
// in-window acceptance, duplicates and stale replays.
func TestUDPDedupWindow(t *testing.T) {
	var w dedupWindow
	steps := []struct {
		seq  uint64
		drop bool
	}{
		{100, false}, // first
		{100, true},  // exact duplicate
		{101, false}, // advance
		{99, false},  // in-window, first time
		{99, true},   // in-window duplicate
		{98, false},
		{300, false}, // jump past the window
		{101, true},  // now stale
	}
	for i, s := range steps {
		if got := w.observe(s.seq); got != s.drop {
			t.Fatalf("step %d: observe(%d) = %v, want %v", i, s.seq, got, s.drop)
		}
	}
	// Distance 64 is the window edge: seq hi-64 is representable (bit 63).
	if w.observe(300 - 64) {
		t.Fatal("seq at window edge wrongly dropped")
	}
	if !w.observe(300 - 65) {
		t.Fatal("seq beyond window wrongly accepted")
	}
}

// TestUDPDedupEndToEnd replays an identical datagram on the wire and expects
// exactly one delivery plus one counted dedup drop.
func TestUDPDedupEndToEnd(t *testing.T) {
	a, b := testIDs()
	nodes, book, err := LocalCluster([]types.ProcessID{b})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	raddr, err := net.ResolveUDPAddr("udp", book[b])
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	pkt := appendPacket(nil, 42, a, "kind", []byte("once"))
	for i := 0; i < 3; i++ {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	m := recvOne(t, nodes[b])
	if string(m.Payload) != "once" {
		t.Fatalf("payload = %q", m.Payload)
	}
	m.ReleaseArena()

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := nodes[b].Stats()
		if st.DedupDrops >= 2 {
			if st.Delivered != 1 {
				t.Fatalf("delivered %d copies, want 1", st.Delivered)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dedup drops never counted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUDPReceiveFilter verifies the packet-loss injection hook: filtered
// datagrams vanish before dedup and delivery.
func TestUDPReceiveFilter(t *testing.T) {
	a, b := testIDs()
	blocked := types.ProcessID{Role: types.RoleServer, Index: 3}
	sink, err := Listen(framed.Config{Self: b, ListenAddr: "127.0.0.1:0"},
		func(from types.ProcessID) bool { return from != blocked })
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	book := transport.AddressBook{b: sink.Addr()}
	nodes := make(map[types.ProcessID]*Node)
	for _, id := range []types.ProcessID{a, blocked} {
		n, err := Listen(framed.Config{Self: id, ListenAddr: "127.0.0.1:0", Book: book}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[id] = n
	}

	if err := nodes[blocked].Send(b, "k", []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[a].Send(b, "k", []byte("passed")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, sink)
	if m.From != a || string(m.Payload) != "passed" {
		t.Fatalf("delivered %v %q, want the unfiltered sender", m.From, m.Payload)
	}
	m.ReleaseArena()
	select {
	case m := <-sink.Inbox():
		t.Fatalf("filtered datagram delivered: %v %q", m.From, m.Payload)
	case <-time.After(100 * time.Millisecond):
	}
}

// FuzzParsePacket holds the datagram parser to its contract on arbitrary
// input: never panic, and on success return views strictly inside the packet
// with a sender identity that passed validation. Past the sequence number the
// work is framed.ParseBody's, which framed.FuzzFrameBody fuzzes directly.
func FuzzParsePacket(f *testing.F) {
	a, _ := testIDs()
	f.Add(appendPacket(nil, 7, a, "kind", []byte("payload")))
	f.Add(appendPacket(nil, 0, types.ProcessID{Role: types.RoleWriter}, wire.BatchKind, nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		seq, from, kind, payload, err := parsePacket(pkt)
		if err != nil {
			return
		}
		if !from.Valid() {
			t.Fatalf("parser accepted invalid sender %v", from)
		}
		if len(payload) > len(pkt) {
			t.Fatalf("payload view (%d bytes) exceeds packet (%d bytes)", len(payload), len(pkt))
		}
		// Round-trip: re-encoding the parsed fields must reproduce the
		// packet byte for byte (the layout has no redundancy).
		if re := appendPacket(nil, seq, from, kind, payload); !bytes.Equal(re, pkt) {
			t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", pkt, re)
		}
	})
}
