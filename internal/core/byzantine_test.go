package core

import (
	"fmt"
	"testing"
	"time"

	"fastread/internal/quorum"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// maliciousForger is a server-role node that replies to every read with a
// fabricated huge timestamp. Without signatures this would poison readers; in
// the arbitrary-failure algorithm readers must discard the forgery.
type maliciousForger struct {
	node transport.Node
	sign func(ts types.Timestamp, cur, prev types.Value) []byte
}

func startMaliciousForger(t *testing.T, net *transport.InMemNetwork, id types.ProcessID, sign func(types.Timestamp, types.Value, types.Value) []byte) {
	t.Helper()
	node, err := net.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	go serve(node, func(m transport.Message) {
		req, err := wire.Decode(m.Payload)
		if err != nil {
			return
		}
		ackOp := wire.OpWriteAck
		if req.Op == wire.OpRead {
			ackOp = wire.OpReadAck
		}
		forgedTS := types.Timestamp(1_000_000)
		forgedCur := types.Value("forged")
		forgedPrev := types.Value("forged-prev")
		ack := &wire.Message{
			Op:       ackOp,
			TS:       forgedTS,
			Cur:      forgedCur,
			Prev:     forgedPrev,
			Seen:     []types.ProcessID{m.From, types.Writer()},
			RCounter: req.RCounter,
		}
		if sign != nil {
			ack.WriterSig = sign(forgedTS, forgedCur, forgedPrev)
		}
		_ = node.Send(m.From, ack.Kind(), wire.MustEncode(ack))
	})
	t.Cleanup(func() { _ = node.Close() })
}

// newByzTestCluster builds a Byzantine-mode cluster where the servers with
// index > honest are replaced by malicious forgers.
func newByzTestCluster(t *testing.T, cfg quorum.Config, maliciousCount int) *testCluster {
	t.Helper()
	net := transport.NewInMemNetwork()
	c := &testCluster{t: t, cfg: cfg, byz: true}
	c.net = net
	c.keys = sig.MustKeyPair()
	t.Cleanup(func() { _ = net.Close() })

	wrongKeys := sig.MustKeyPair()
	for i := 1; i <= cfg.Servers; i++ {
		id := types.Server(i)
		if i > cfg.Servers-maliciousCount {
			// Malicious servers sign forgeries with a key that is NOT the
			// writer's: unforgeability means they cannot do better.
			startMaliciousForger(t, net, id, func(ts types.Timestamp, cur, prev types.Value) []byte {
				return wrongKeys.Signer.MustSign(ts, cur, prev)
			})
			continue
		}
		node, err := net.Join(id)
		if err != nil {
			t.Fatalf("join server %d: %v", i, err)
		}
		srv, err := NewServer(ServerConfig{
			ID:        id,
			Readers:   cfg.Readers,
			Byzantine: true,
			Verifier:  c.keys.Verifier,
		}, node)
		if err != nil {
			t.Fatalf("new server %d: %v", i, err)
		}
		srv.Start()
		c.servers = append(c.servers, srv)
		t.Cleanup(srv.Stop)
	}

	wNode, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	c.writer, err = NewWriter(WriterConfig{Quorum: cfg, Byzantine: true, Signer: c.keys.Signer}, wNode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= cfg.Readers; i++ {
		rNode, err := net.Join(types.Reader(i))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(ReaderConfig{Quorum: cfg, Byzantine: true, Verifier: c.keys.Verifier}, rNode)
		if err != nil {
			t.Fatal(err)
		}
		c.readers = append(c.readers, rd)
	}
	return c
}

func TestByzantineHappyPath(t *testing.T) {
	cfg := quorum.Config{Servers: 8, Faulty: 1, Malicious: 1, Readers: 1}
	if !cfg.FastReadPossible() {
		t.Fatal("test configuration must admit fast reads")
	}
	c := newTestCluster(t, cfg, withByzantine())
	c.write("v1")
	res := c.read(1)
	if !res.Value.Equal(types.Value("v1")) || res.Timestamp != 1 {
		t.Errorf("read = %s ts=%d, want v1 ts=1", res.Value, res.Timestamp)
	}
}

func TestByzantineForgedTimestampsRejected(t *testing.T) {
	cfg := quorum.Config{Servers: 8, Faulty: 1, Malicious: 1, Readers: 1}
	c := newByzTestCluster(t, cfg, cfg.Malicious)

	c.write("genuine-1")
	res := c.read(1)
	if !res.Value.Equal(types.Value("genuine-1")) {
		t.Fatalf("read returned %s, want genuine-1 (forged replies must be discarded)", res.Value)
	}
	if res.MaxTimestamp >= 1_000_000 {
		t.Fatalf("reader adopted a forged timestamp %d", res.MaxTimestamp)
	}

	// Multiple rounds: monotone, never the forged value.
	prev := res.Timestamp
	for i := 2; i <= 5; i++ {
		c.write(fmt.Sprintf("genuine-%d", i))
		r := c.read(1)
		if r.Timestamp < prev {
			t.Fatalf("timestamps went backwards: %d after %d", r.Timestamp, prev)
		}
		if r.Value.Equal(types.Value("forged")) {
			t.Fatal("reader returned the forged value")
		}
		prev = r.Timestamp
	}
}

func TestByzantineServersDoNotAdoptForgeries(t *testing.T) {
	// A malicious *client* (compromised reader identity) tries to push an
	// unsigned high timestamp into honest servers; they must refuse it.
	cfg := quorum.Config{Servers: 6, Faulty: 1, Malicious: 1, Readers: 1}
	c := newTestCluster(t, cfg, withByzantine())
	c.write("v1")

	rogue, err := c.net.Join(types.Reader(9))
	if err != nil {
		t.Fatal(err)
	}
	// Note: reader 9 is outside R so servers drop it for that reason too;
	// also try impersonating reader 1's identity is impossible on this
	// transport, so the interesting case is a legitimate reader index with a
	// bogus signature, covered next.
	forged := &wire.Message{Op: wire.OpRead, TS: 500, Cur: types.Value("evil"), RCounter: 1}
	for i := 1; i <= cfg.Servers; i++ {
		_ = rogue.Send(types.Server(i), forged.Kind(), wire.MustEncode(forged))
	}
	time.Sleep(50 * time.Millisecond)
	for _, srv := range c.servers {
		if srv.State().Value.TS >= 500 {
			t.Fatalf("server %v adopted an unsigned forged timestamp", srv.ID())
		}
	}

	// A legitimate reader identity with an invalid signature must also be
	// rejected. Use the real reader's node after its own read so counters
	// stay consistent.
	res := c.read(1)
	if res.Timestamp != 1 {
		t.Fatalf("setup read returned ts=%d", res.Timestamp)
	}
	wrongKeys := sig.MustKeyPair()
	badSig := wrongKeys.Signer.MustSign(700, types.Value("evil"), types.Bottom())
	bad := &wire.Message{Op: wire.OpRead, TS: 700, Cur: types.Value("evil"), RCounter: 99, WriterSig: badSig}
	rogueReaderNode, err := c.net.Join(types.Reader(1 + cfg.Readers)) // a spare identity
	if err != nil {
		t.Fatal(err)
	}
	_ = rogueReaderNode
	// Send from the rogue node pretending a valid op; servers check the
	// signature before the identity-derived counter, so TS must not change.
	for i := 1; i <= cfg.Servers; i++ {
		_ = rogue.Send(types.Server(i), bad.Kind(), wire.MustEncode(bad))
	}
	time.Sleep(50 * time.Millisecond)
	for _, srv := range c.servers {
		if srv.State().Value.TS >= 500 {
			t.Fatalf("server %v adopted a badly signed timestamp", srv.ID())
		}
	}
}

func TestByzantineReadBeforeWrite(t *testing.T) {
	cfg := quorum.Config{Servers: 8, Faulty: 1, Malicious: 1, Readers: 1}
	c := newByzTestCluster(t, cfg, cfg.Malicious)
	res := c.read(1)
	if !res.Value.IsBottom() || res.Timestamp != 0 {
		t.Errorf("read before write = %s ts=%d, want ⊥ ts=0", res.Value, res.Timestamp)
	}
}

func TestByzantineMaliciousCannotViolateMonotonicityAcrossReaders(t *testing.T) {
	cfg := quorum.Config{Servers: 11, Faulty: 1, Malicious: 1, Readers: 2}
	if !cfg.FastReadPossible() {
		t.Fatalf("configuration %v must admit fast reads", cfg)
	}
	c := newByzTestCluster(t, cfg, cfg.Malicious)

	var lastTS types.Timestamp
	for i := 1; i <= 6; i++ {
		c.write(fmt.Sprintf("v%d", i))
		for r := 1; r <= cfg.Readers; r++ {
			res := c.read(r)
			if res.Timestamp < lastTS {
				t.Fatalf("reader r%d returned ts=%d after ts=%d had been returned", r, res.Timestamp, lastTS)
			}
			lastTS = res.Timestamp
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
