package core

import (
	"context"
	"testing"
	"time"

	"fastread/internal/fault"
	"fastread/internal/quorum"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// testCluster wires up a full in-memory deployment of the fast register:
// S servers, the writer and R readers.
type testCluster struct {
	t       *testing.T
	cfg     quorum.Config
	net     *transport.InMemNetwork
	servers []*Server
	writer  *Writer
	readers []*Reader
	keys    sig.KeyPair
	byz     bool
	// inflaters is the number of highest-numbered servers replaced by
	// malicious fault.BehaviorInflateSeen stand-ins (not listed in servers).
	inflaters int
	// wrapReader, when set, decorates every reader's node before its reader
	// is built on it.
	wrapReader func(transport.Node) transport.Node
}

type clusterOption func(*testCluster)

func withByzantine() clusterOption {
	return func(c *testCluster) { c.byz = true }
}

func withNetwork(net *transport.InMemNetwork) clusterOption {
	return func(c *testCluster) { c.net = net }
}

func withInflaters(n int) clusterOption {
	return func(c *testCluster) { c.inflaters = n }
}

func withReaderNode(wrap func(transport.Node) transport.Node) clusterOption {
	return func(c *testCluster) { c.wrapReader = wrap }
}

// newTestCluster builds and starts a cluster. Servers, writer and readers are
// all attached to the same in-memory network.
func newTestCluster(t *testing.T, cfg quorum.Config, opts ...clusterOption) *testCluster {
	t.Helper()
	c := &testCluster{t: t, cfg: cfg, keys: sig.MustKeyPair()}
	for _, o := range opts {
		o(c)
	}
	if c.net == nil {
		c.net = transport.NewInMemNetwork()
	}
	t.Cleanup(func() { _ = c.net.Close() })

	for i := 1; i <= cfg.Servers; i++ {
		node, err := c.net.Join(types.Server(i))
		if err != nil {
			t.Fatalf("join server %d: %v", i, err)
		}
		if i > cfg.Servers-c.inflaters {
			byz, err := fault.NewByzantineServer(fault.ByzantineConfig{
				ID: types.Server(i), Behavior: fault.BehaviorInflateSeen, Readers: cfg.Readers,
			}, node)
			if err != nil {
				t.Fatalf("new malicious server %d: %v", i, err)
			}
			byz.Start()
			t.Cleanup(byz.Stop)
			continue
		}
		srv, err := NewServer(ServerConfig{
			ID:        types.Server(i),
			Readers:   cfg.Readers,
			Byzantine: c.byz,
			Verifier:  c.keys.Verifier,
			// Force multiple key-shard workers regardless of GOMAXPROCS so
			// the whole suite — including the chaos/atomicity schedules —
			// exercises the sharded executor, not its single-worker
			// degenerate form.
			Workers: 4,
		}, node)
		if err != nil {
			t.Fatalf("new server %d: %v", i, err)
		}
		srv.Start()
		c.servers = append(c.servers, srv)
		t.Cleanup(srv.Stop)
	}

	wNode, err := c.net.Join(types.Writer())
	if err != nil {
		t.Fatalf("join writer: %v", err)
	}
	c.writer, err = NewWriter(WriterConfig{
		Quorum:    cfg,
		Byzantine: c.byz,
		Signer:    c.keys.Signer,
	}, wNode)
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}

	for i := 1; i <= cfg.Readers; i++ {
		rNode, err := c.net.Join(types.Reader(i))
		if err != nil {
			t.Fatalf("join reader %d: %v", i, err)
		}
		if c.wrapReader != nil {
			rNode = c.wrapReader(rNode)
		}
		rd, err := NewReader(ReaderConfig{
			Quorum:    cfg,
			Byzantine: c.byz,
			Verifier:  c.keys.Verifier,
		}, rNode)
		if err != nil {
			t.Fatalf("new reader %d: %v", i, err)
		}
		c.readers = append(c.readers, rd)
	}
	return c
}

func (c *testCluster) ctx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	c.t.Cleanup(cancel)
	return ctx
}

func (c *testCluster) write(v string) {
	c.t.Helper()
	if err := c.writer.Write(c.ctx(), types.Value(v)); err != nil {
		c.t.Fatalf("write %q: %v", v, err)
	}
}

func (c *testCluster) read(reader int) ReadResult {
	c.t.Helper()
	res, err := c.readers[reader-1].Read(c.ctx())
	if err != nil {
		c.t.Fatalf("read by r%d: %v", reader, err)
	}
	return res
}
