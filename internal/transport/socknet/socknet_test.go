package socknet

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// pair binds two nodes that know each other on the given backend. Sockets
// land on ephemeral ports, so the peers find each other through Resolve, the
// way a loopback Store deployment does.
func pair(t *testing.T, backend string, a, b types.ProcessID) (Node, Node) {
	t.Helper()
	live := make(transport.AddressBook)
	resolve := func(id types.ProcessID) (string, bool) { addr, ok := live[id]; return addr, ok }
	nodes := make([]Node, 0, 2)
	for _, id := range []types.ProcessID{a, b} {
		n, err := Listen(backend, framed.Config{Self: id, ListenAddr: "127.0.0.1:0", Resolve: resolve}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes = append(nodes, n)
	}
	// Filled in before the first Send, read-only afterwards.
	live[a], live[b] = nodes[0].Addr(), nodes[1].Addr()
	return nodes[0], nodes[1]
}

func recvOne(t *testing.T, n Node) transport.Message {
	t.Helper()
	select {
	case m, ok := <-n.Inbox():
		if !ok {
			t.Fatalf("inbox of %v closed", n.ID())
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("no message delivered to %v", n.ID())
		return transport.Message{}
	}
}

// waitStats polls until the node's counters satisfy ok.
func waitStats(t *testing.T, n Node, what string, ok func(framed.Stats) bool) framed.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := n.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: stats stuck at %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCarrierConformance runs the behaviour every socket node owes its
// consumers against both carriers, bound through the one backend switch.
// What only one carrier does (TCP: interleaving, coalescing, eviction; UDP:
// dedup, chunking, the receive filter) is tested in its own package.
func TestCarrierConformance(t *testing.T) {
	a, b := types.Reader(1), types.Server(1)
	rows := []struct {
		name string
		run  func(t *testing.T, backend string)
	}{
		{"send and receive", func(t *testing.T, backend string) {
			na, nb := pair(t, backend, a, b)
			if err := na.Send(b, "ping", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			m := recvOne(t, nb)
			if m.From != a || m.To != b || string(m.Payload) != "hello" {
				t.Fatalf("got %v→%v %q", m.From, m.To, m.Payload)
			}
			if m.Arena == nil {
				t.Fatal("delivered message carries no arena")
			}
			m.ReleaseArena()
			if err := nb.Send(a, "pong", []byte("world")); err != nil {
				t.Fatal(err)
			}
			if m := recvOne(t, na); m.From != b || string(m.Payload) != "world" {
				t.Fatalf("reply: got %v %q", m.From, m.Payload)
			} else {
				m.ReleaseArena()
			}
			if st := nb.Stats(); st.Delivered != 1 || st.Frames != 1 {
				t.Fatalf("stats = %+v, want 1 delivered / 1 frame", st)
			}
		}},
		{"batch expands sharing one arena", func(t *testing.T, backend string) {
			na, nb := pair(t, backend, a, b)
			batch := wire.NewBatch(0)
			const msgs = 5
			for i := 0; i < msgs; i++ {
				batch.Append([]byte(fmt.Sprintf("entry-%d", i)))
			}
			if err := na.Send(b, wire.BatchKind, batch.Bytes()); err != nil {
				t.Fatal(err)
			}
			var arena *wire.Arena
			for i := 0; i < msgs; i++ {
				m := recvOne(t, nb)
				if want := fmt.Sprintf("entry-%d", i); string(m.Payload) != want || m.From != a {
					t.Fatalf("entry %d = %q from %v, want %q from %v", i, m.Payload, m.From, want, a)
				}
				if arena == nil {
					arena = m.Arena
				}
				if m.Arena == nil || m.Arena != arena {
					t.Fatalf("entry %d on arena %p, want the shared %p", i, m.Arena, arena)
				}
			}
			// One reference per delivered message, none left with the reader.
			if refs := arena.Refs(); refs != msgs {
				t.Fatalf("arena holds %d references after expansion, want %d", refs, msgs)
			}
			for i := 0; i < msgs; i++ {
				arena.Release()
			}
			if st := nb.Stats(); st.Delivered != msgs || st.Frames != 1 {
				t.Fatalf("stats = %+v, want %d delivered / 1 frame", st, msgs)
			}
		}},
		{"unknown destination dropped", func(t *testing.T, backend string) {
			na, _ := pair(t, backend, a, b)
			if err := na.Send(types.Server(9), "x", []byte("nowhere")); err != nil {
				t.Fatalf("send to unknown peer = %v, want silent drop", err)
			}
			if st := na.Stats(); st.DroppedSend != 1 {
				t.Fatalf("DroppedSend = %d, want 1", st.DroppedSend)
			}
		}},
		{"oversized payload refused", func(t *testing.T, backend string) {
			na, nb := pair(t, backend, a, b)
			// Larger than either carrier's single-message ceiling.
			if err := na.Send(b, "x", make([]byte, 4<<20)); err == nil {
				t.Fatal("oversized payload accepted")
			}
			if st := na.Stats(); st.DroppedSend != 1 {
				t.Fatalf("DroppedSend = %d, want 1", st.DroppedSend)
			}
			if st := nb.Stats(); st.Frames != 0 {
				t.Fatalf("receiver saw %d frames of a refused payload", st.Frames)
			}
		}},
		{"full inbox drops and releases", func(t *testing.T, backend string) {
			na, nb := pair(t, backend, a, b)
			// Leave room for exactly two more messages, pacing the sender so
			// neither carrier's bounded outbound queue overflows.
			room := 2
			fill := framed.InboxLen - room
			for i := 0; i < fill; i++ {
				if err := na.Send(b, "fill", []byte("x")); err != nil {
					t.Fatal(err)
				}
				if i%64 == 63 || i == fill-1 {
					waitStats(t, nb, "filling the inbox", func(st framed.Stats) bool { return st.Delivered == int64(i+1) })
				}
			}
			batch := wire.NewBatch(0)
			const msgs = 5
			for i := 0; i < msgs; i++ {
				batch.Append([]byte(fmt.Sprintf("late-%d", i)))
			}
			if err := na.Send(b, wire.BatchKind, batch.Bytes()); err != nil {
				t.Fatal(err)
			}
			st := waitStats(t, nb, "overflowing the inbox", func(st framed.Stats) bool { return st.DroppedInbound >= msgs-int64(room) })
			if st.DroppedInbound != msgs-int64(room) || st.Delivered != int64(fill+room) || na.Stats().DroppedSend != 0 {
				t.Fatalf("receiver %+v, sender %+v: want %d delivered, %d dropped inbound, no send drops",
					st, na.Stats(), fill+room, msgs-room)
			}
			for i := 0; i < fill; i++ {
				recvOne(t, nb).ReleaseArena()
			}
			// The two messages that fit hold the frame's only references: the
			// three dropped ones and the reader's own were given back.
			m := recvOne(t, nb)
			if string(m.Payload) != "late-0" || m.Arena.Refs() != int32(room) {
				t.Fatalf("first admitted message %q on an arena with %d references, want late-0 and %d", m.Payload, m.Arena.Refs(), room)
			}
			m.ReleaseArena()
			recvOne(t, nb).ReleaseArena()
		}},
		{"close is final and idempotent", func(t *testing.T, backend string) {
			na, nb := pair(t, backend, a, b)
			if err := na.Send(b, "k", []byte("before")); err != nil {
				t.Fatal(err)
			}
			recvOne(t, nb).ReleaseArena()
			before := nb.Stats()
			if err := nb.Close(); err != nil {
				t.Fatal(err)
			}
			if err := nb.Close(); err != nil {
				t.Fatal("second Close not idempotent:", err)
			}
			if err := nb.Send(a, "k", []byte("after")); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Send after Close = %v, want transport.ErrClosed", err)
			}
			if _, ok := <-nb.Inbox(); ok {
				t.Fatal("inbox not closed")
			}
			if after := nb.Stats(); after.Delivered != before.Delivered || after.Frames != before.Frames {
				t.Fatalf("stats after close = %+v, want what was counted before it: %+v", after, before)
			}
		}},
	}
	for _, backend := range []string{"tcp", "udp"} {
		for _, row := range rows {
			t.Run(backend+"/"+row.name, func(t *testing.T) { row.run(t, backend) })
		}
	}
}

// Golden wire bytes, captured from the commit before the carriers shared a
// frame codec: what its tcpnet.encodeFrame and udpnet.appendPacket produced
// for one plain and one two-message batch payload, and what its tcpnet node
// actually wrote for the plain one (every TCP Send leaves as a batch frame).
// A deployment that mixes binaries from before and after must keep working,
// so these strings only ever change together with a wire version bump.
const (
	goldenTCPPlain = "00000017" + "020000000300077265616461636b00000005" + "68656c6c6f"
	goldenTCPSolo  = "0000001e" + "0200000003000562617463680000000e" + "b7010000000500000068656c6c6f"
	goldenTCPBatch = "00000025" + "03000000020005626174636800000015" + "b702000000030000006f6e65050000007468726565"
	goldenUDPPlain = "0102030405060708" + "020000000300077265616461636b00000005" + "68656c6c6f"
	goldenUDPBatch = "0102030405060709" + "03000000020005626174636800000015" + "b702000000030000006f6e65050000007468726565"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenWireBytes pins both carriers' bytes on the wire, in both
// directions, against raw sockets: a node must emit exactly what the previous
// version emitted for the same Send, and must deliver what the previous
// version's encoders produced.
func TestGoldenWireBytes(t *testing.T) {
	plainFrom, batchFrom, raw := types.Reader(3), types.Server(2), types.Server(9)
	batch := wire.NewBatch(0)
	batch.Append([]byte("one"))
	batch.Append([]byte("three"))

	// expectGolden feeds a node the two golden frames and checks it delivers
	// the plain message and then the batch's two.
	expectGolden := func(t *testing.T, n Node) {
		t.Helper()
		for _, want := range []struct {
			from    types.ProcessID
			kind    string
			payload string
		}{
			{plainFrom, "readack", "hello"},
			{batchFrom, wire.BatchKind, "one"},
			{batchFrom, wire.BatchKind, "three"},
		} {
			m := recvOne(t, n)
			if m.From != want.from || m.Kind != want.kind || string(m.Payload) != want.payload {
				t.Fatalf("delivered %v %q %q, want %v %q %q", m.From, m.Kind, m.Payload, want.from, want.kind, want.payload)
			}
			m.ReleaseArena()
		}
	}

	t.Run("tcp", func(t *testing.T) {
		peer, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		book := transport.AddressBook{raw: peer.Addr().String()}
		// emitted returns everything a fresh node with the given identity
		// writes to the raw peer for one Send.
		emitted := func(self types.ProcessID, kind string, payload []byte) []byte {
			n, err := Listen("tcp", framed.Config{Self: self, ListenAddr: "127.0.0.1:0", Book: book}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Send(raw, kind, payload); err != nil {
				t.Fatal(err)
			}
			conn, err := peer.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var lenBuf [4]byte
			if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, 4+int(lenBuf[3])) // golden frames are < 256 bytes
			copy(frame, lenBuf[:])
			if _, err := io.ReadFull(conn, frame[4:]); err != nil {
				t.Fatal(err)
			}
			_ = n.Close()
			return frame
		}
		if got := emitted(plainFrom, "readack", []byte("hello")); !bytes.Equal(got, unhex(t, goldenTCPSolo)) {
			t.Errorf("plain Send wrote\n %x, want\n %s", got, goldenTCPSolo)
		}
		if got := emitted(batchFrom, wire.BatchKind, batch.Bytes()); !bytes.Equal(got, unhex(t, goldenTCPBatch)) {
			t.Errorf("batch Send wrote\n %x, want\n %s", got, goldenTCPBatch)
		}

		n, err := Listen("tcp", framed.Config{Self: raw, ListenAddr: "127.0.0.1:0"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(append(unhex(t, goldenTCPPlain), unhex(t, goldenTCPBatch)...)); err != nil {
			t.Fatal(err)
		}
		expectGolden(t, n)
	})

	t.Run("udp", func(t *testing.T) {
		peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		book := transport.AddressBook{raw: peer.LocalAddr().String()}
		// emitted returns the datagram a fresh node writes for one Send,
		// minus its clock-seeded sequence number.
		emitted := func(self types.ProcessID, kind string, payload []byte) []byte {
			n, err := Listen("udp", framed.Config{Self: self, ListenAddr: "127.0.0.1:0", Book: book}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if err := n.Send(raw, kind, payload); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1<<16)
			_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
			m, _, err := peer.ReadFromUDP(buf)
			if err != nil || m < 8 {
				t.Fatalf("read datagram: %d bytes, %v", m, err)
			}
			return buf[8:m]
		}
		if got := emitted(plainFrom, "readack", []byte("hello")); !bytes.Equal(got, unhex(t, goldenUDPPlain)[8:]) {
			t.Errorf("plain Send wrote seq +\n %x, want\n %s", got, goldenUDPPlain[16:])
		}
		if got := emitted(batchFrom, wire.BatchKind, batch.Bytes()); !bytes.Equal(got, unhex(t, goldenUDPBatch)[8:]) {
			t.Errorf("batch Send wrote seq +\n %x, want\n %s", got, goldenUDPBatch[16:])
		}

		n, err := Listen("udp", framed.Config{Self: raw, ListenAddr: "127.0.0.1:0"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		to, err := net.ResolveUDPAddr("udp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// One at a time: loopback rarely reorders datagrams, but nothing
		// promises it.
		if _, err := peer.WriteToUDP(unhex(t, goldenUDPPlain), to); err != nil {
			t.Fatal(err)
		}
		waitStats(t, n, "plain golden datagram", func(st framed.Stats) bool { return st.Delivered == 1 })
		if _, err := peer.WriteToUDP(unhex(t, goldenUDPBatch), to); err != nil {
			t.Fatal(err)
		}
		expectGolden(t, n)
	})
}
