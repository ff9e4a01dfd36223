package fastread

import (
	"context"
	"testing"

	"fastread/internal/core"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/transport/tcpnet"
	"fastread/internal/types"
)

// BenchmarkTransport is the transport ablation: the same fast-register read
// measured over the in-memory channel network and over
// loopback TCP. The protocol code is identical; the difference is pure
// transport cost.
func BenchmarkTransport(b *testing.B) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}

	b.Run("InMemory", func(b *testing.B) {
		net := transport.NewInMemNetwork()
		defer net.Close()
		nodeFor := func(id types.ProcessID) transport.Node {
			node, err := net.Join(id)
			if err != nil {
				b.Fatal(err)
			}
			return node
		}
		benchmarkFastReadOverTransport(b, cfg, nodeFor)
	})

	b.Run("TCPLoopback", func(b *testing.B) {
		ids := []types.ProcessID{types.Writer(), types.Reader(1)}
		for i := 1; i <= cfg.Servers; i++ {
			ids = append(ids, types.Server(i))
		}
		nodes, _, err := tcpnet.LocalCluster(ids)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			for _, n := range nodes {
				_ = n.Close()
			}
		}()
		nodeFor := func(id types.ProcessID) transport.Node { return nodes[id] }
		benchmarkFastReadOverTransport(b, cfg, nodeFor)
	})
}

// benchmarkFastReadOverTransport wires a fast-register deployment on the
// given transport and measures single-reader read latency.
func benchmarkFastReadOverTransport(b *testing.B, cfg quorum.Config, nodeFor func(types.ProcessID) transport.Node) {
	b.Helper()
	for i := 1; i <= cfg.Servers; i++ {
		srv, err := core.NewServer(core.ServerConfig{ID: types.Server(i), Readers: cfg.Readers}, nodeFor(types.Server(i)))
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		b.Cleanup(srv.Stop)
	}
	writer, err := core.NewWriter(core.WriterConfig{Quorum: cfg}, nodeFor(types.Writer()))
	if err != nil {
		b.Fatal(err)
	}
	reader, err := core.NewReader(core.ReaderConfig{Quorum: cfg}, nodeFor(types.Reader(1)))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := writer.Write(ctx, types.Value("seed")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reader.Read(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
