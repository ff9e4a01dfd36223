package fastread

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/core"
	"fastread/internal/quorum"
	"fastread/internal/sig"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// The benchmarks below regenerate the quantitative comparisons of the
// reproduction (experiments E1–E8, internal/experiments):
//
//   - Benchmark{Fast,ABD,MaxMin,Regular}Read and Benchmark*Write are the
//     microbenchmark counterpart of experiment E7 (time complexity of reads
//     and writes per protocol and system size).
//   - BenchmarkByzantine* covers the arbitrary-failure algorithm (E3).
//   - BenchmarkPredicate* is the ablation of the seen-set predicate
//     evaluator.
//   - BenchmarkWire* and BenchmarkSig* quantify the codec and signature
//     substrates.
//
// Absolute numbers are machine-dependent; the shapes (fast ≈ regular,
// ABD ≈ 2× message count per read, signature cost dominating the Byzantine
// write path) are what the paper predicts.

// benchCluster builds a cluster for benchmarking and fails the benchmark on
// error.
func benchCluster(b *testing.B, cfg Config) *Cluster {
	b.Helper()
	cluster, err := NewCluster(cfg)
	if err != nil {
		b.Fatalf("NewCluster: %v", err)
	}
	b.Cleanup(func() { _ = cluster.Close() })
	return cluster
}

// benchCtx returns a long-lived context for benchmark operations.
func benchCtx(b *testing.B) context.Context {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	b.Cleanup(cancel)
	return ctx
}

// readProtocols lists the protocols compared by the read benchmarks.
var readProtocols = []struct {
	name  string
	proto Protocol
}{
	{"Fast", ProtocolFast},
	{"ABD", ProtocolABD},
	{"MaxMin", ProtocolMaxMin},
	{"Regular", ProtocolRegular},
}

// benchmarkRead measures a single reader issuing reads back to back.
func benchmarkRead(b *testing.B, proto Protocol, servers int) {
	b.Helper()
	cluster := benchCluster(b, Config{Servers: servers, Faulty: 1, Readers: 1, Protocol: proto})
	ctx := benchCtx(b)
	if err := cluster.Writer().Write(ctx, []byte("bench-value")); err != nil {
		b.Fatalf("seed write: %v", err)
	}
	reader, err := cluster.Reader(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reader.Read(ctx); err != nil {
			b.Fatalf("read: %v", err)
		}
	}
}

// benchmarkWrite measures the writer issuing writes back to back.
func benchmarkWrite(b *testing.B, proto Protocol, servers int) {
	b.Helper()
	cluster := benchCluster(b, Config{Servers: servers, Faulty: 1, Readers: 1, Protocol: proto})
	ctx := benchCtx(b)
	value := []byte("bench-value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cluster.Writer().Write(ctx, value); err != nil {
			b.Fatalf("write: %v", err)
		}
	}
}

// BenchmarkFastRead is the canonical hot-path benchmark: one reader of the
// paper's fast register issuing reads back to back over the in-memory
// transport (S=4, t=1). Its allocs/op figure is the PR-over-PR budget for
// the zero-copy codec and transport work; see BENCH_2.json.
func BenchmarkFastRead(b *testing.B) {
	benchmarkRead(b, ProtocolFast, 4)
}

// BenchmarkFastWrite is the matching writer-side hot-path benchmark.
func BenchmarkFastWrite(b *testing.B) {
	benchmarkWrite(b, ProtocolFast, 4)
}

func BenchmarkRead(b *testing.B) {
	for _, proto := range readProtocols {
		for _, servers := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("%s/S=%d", proto.name, servers), func(b *testing.B) {
				benchmarkRead(b, proto.proto, servers)
			})
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	for _, proto := range readProtocols {
		for _, servers := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("%s/S=%d", proto.name, servers), func(b *testing.B) {
				benchmarkWrite(b, proto.proto, servers)
			})
		}
	}
}

// BenchmarkReadWithNetworkDelay reproduces the latency table E7 in benchmark
// form: with a uniform per-message delay the protocol's round-trip count is
// directly visible in ns/op.
func BenchmarkReadWithNetworkDelay(b *testing.B) {
	const delay = 200 * time.Microsecond
	for _, proto := range readProtocols {
		b.Run(proto.name, func(b *testing.B) {
			cluster := benchCluster(b, Config{
				Servers: 5, Faulty: 1, Readers: 1, Protocol: proto.proto, Transport: InMemory(WithDelay(delay)),
			})
			ctx := benchCtx(b)
			if err := cluster.Writer().Write(ctx, []byte("seed")); err != nil {
				b.Fatal(err)
			}
			reader, err := cluster.Reader(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reader.Read(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkByzantineFast covers the arbitrary-failure algorithm: the extra
// cost over the crash-model register is one signature per write and one
// verification per accepted acknowledgement.
func BenchmarkByzantineFast(b *testing.B) {
	cfg := Config{Servers: 8, Faulty: 1, Malicious: 1, Readers: 1, Protocol: ProtocolFastByzantine}
	b.Run("Write", func(b *testing.B) {
		cluster := benchCluster(b, cfg)
		ctx := benchCtx(b)
		value := []byte("signed-value")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cluster.Writer().Write(ctx, value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Read", func(b *testing.B) {
		cluster := benchCluster(b, cfg)
		ctx := benchCtx(b)
		if err := cluster.Writer().Write(ctx, []byte("signed-value")); err != nil {
			b.Fatal(err)
		}
		reader, err := cluster.Reader(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reader.Read(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkByzantineRead measures steady-state reads of the
// arbitrary-failure register (Figure 5). Every ack carries the same writer
// signature until the next write, so with the verified-signature cache the
// asymmetric crypto drops out of the loop after the first round-trip — this
// benchmark is the cache's acceptance gate (≥2× over the uncached baseline
// recorded in BENCH_2.json).
func BenchmarkByzantineRead(b *testing.B) {
	cluster := benchCluster(b, Config{Servers: 8, Faulty: 1, Malicious: 1, Readers: 1, Protocol: ProtocolFastByzantine})
	ctx := benchCtx(b)
	if err := cluster.Writer().Write(ctx, []byte("signed-value")); err != nil {
		b.Fatal(err)
	}
	reader, err := cluster.Reader(1)
	if err != nil {
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

// BenchmarkPredicate is the ablation of the exact seen-set predicate
// evaluator: cost as a function of the number of readers and of
// the maxTS message count.
func BenchmarkPredicate(b *testing.B) {
	scenarios := []struct {
		name    string
		readers int
		msgs    int
	}{
		{"R=1/msgs=3", 1, 3},
		{"R=4/msgs=8", 4, 8},
		{"R=8/msgs=16", 8, 16},
		{"R=16/msgs=32", 16, 32},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			cfg := quorum.Config{Servers: sc.msgs * 2, Faulty: 1, Readers: sc.readers}
			acks := make([]core.SeenAck, sc.msgs)
			for i := range acks {
				seen := types.NewProcessSet(types.Writer())
				for r := 1; r <= sc.readers; r++ {
					if (i+r)%2 == 0 {
						seen.Add(types.Reader(r))
					}
				}
				acks[i] = core.SeenAck{Server: types.Server(i + 1), Seen: seen}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EvaluatePredicate(cfg, acks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireCodec quantifies the message codec substrate.
func BenchmarkWireCodec(b *testing.B) {
	msg := &wire.Message{
		Op:       wire.OpReadAck,
		TS:       12345,
		Cur:      types.Value("a realistic register value payload"),
		Prev:     types.Value("the immediately preceding value"),
		Seen:     []types.ProcessID{types.Writer(), types.Reader(1), types.Reader(2), types.Reader(3)},
		RCounter: 42,
	}
	encoded := wire.MustEncode(msg)
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.Encode(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(encoded); err != nil {
				b.Fatal(err)
			}
		}
	})
	// AppendEncode into a reused buffer and DecodeInto into a reused message
	// are the hot-path variants: steady state is allocation-free.
	b.Run("AppendEncode", func(b *testing.B) {
		buf := make([]byte, 0, wire.EncodedSize(msg))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := wire.AppendEncode(buf[:0], msg)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
	})
	b.Run("DecodeInto", func(b *testing.B) {
		var scratch wire.Message
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := wire.DecodeInto(&scratch, encoded); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSignatures quantifies the signature substrate used by the
// arbitrary-failure algorithm (one Sign per write, one Verify per accepted
// acknowledgement).
func BenchmarkSignatures(b *testing.B) {
	kp := sig.MustKeyPair()
	cur := types.Value("a realistic register value payload")
	prev := types.Value("the immediately preceding value")
	signature := kp.Signer.MustSign(7, cur, prev)
	b.Run("Sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kp.Signer.Sign(7, cur, prev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := kp.Verifier.Verify(7, cur, prev, signature); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreParallelKeys measures aggregate throughput as the number of
// registers multiplexed over one deployment grows: each parallel worker owns
// a subset of the keys and alternates writes and reads on them. This is the
// baseline for the later sharding/batching work — ops/sec should grow with
// the key count (per-key operations are independent) until the shared
// transport saturates.
func BenchmarkStoreParallelKeys(b *testing.B) {
	for _, proto := range []struct {
		name string
		cfg  Config
	}{
		{"Fast", Config{Servers: 7, Faulty: 1, Readers: 1, Protocol: ProtocolFast}},
		{"ABD", Config{Servers: 5, Faulty: 2, Readers: 1, Protocol: ProtocolABD}},
	} {
		for _, keys := range []int{1, 8, 64, 256} {
			b.Run(fmt.Sprintf("%s/keys=%d", proto.name, keys), func(b *testing.B) {
				store, err := NewStore(proto.cfg)
				if err != nil {
					b.Fatalf("NewStore: %v", err)
				}
				b.Cleanup(func() { _ = store.Close() })
				ctx := benchCtx(b)

				regs := make([]*Register, keys)
				for i := range regs {
					reg, err := store.Register(fmt.Sprintf("bench-key-%d", i))
					if err != nil {
						b.Fatal(err)
					}
					regs[i] = reg
					if err := reg.Writer().Write(ctx, []byte("seed")); err != nil {
						b.Fatalf("seed write key %d: %v", i, err)
					}
				}

				var next atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					// Each worker claims one key (cycling if workers exceed
					// keys) so per-key handles keep their one-op-at-a-time
					// contract; workers on distinct keys run fully in
					// parallel over the shared servers.
					idx := int(next.Add(1)-1) % keys
					reg := regs[idx]
					reader, err := reg.Reader(1)
					if err != nil {
						b.Fatal(err)
					}
					i := 0
					for pb.Next() {
						if i%2 == 0 {
							if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
								b.Fatalf("write: %v", err)
							}
						} else {
							if _, err := reader.Read(ctx); err != nil {
								b.Fatalf("read: %v", err)
							}
						}
						i++
					}
				})
			})
		}
	}
}

// BenchmarkStoreGroups measures horizontal scale-out: the SAME 64-key
// closed-loop workload under the SAME CPU budget (GOMAXPROCS pinned to 4, 16
// client workers), served by 1, 2 or 4 consistent-hash replica groups.
// Every server runs ONE executor worker — the "smallest server" whose
// capacity caps an unpartitioned replica set — so a single group's execution
// and its per-process mailbox pumps are a fixed-size bottleneck no matter
// how many keys it serves, while each added group brings its own servers,
// its own client identities and its own network. On multi-core hardware
// aggregate ops/sec should therefore scale with the group count instead of
// flattening; on a single hardware core the groups only add goroutines to
// overcommit (compare ratios on CI's multi-core runners, as with
// BenchmarkStoreParallelKeys).
func BenchmarkStoreGroups(b *testing.B) {
	const (
		keyCount = 64
		workers  = 16
	)
	for _, groupCount := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("groups=%d", groupCount), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(4)
			defer runtime.GOMAXPROCS(prev)
			specs := make([]GroupSpec, groupCount)
			for i := range specs {
				specs[i] = GroupSpec{Name: fmt.Sprintf("g%d", i)}
			}
			store, err := NewStore(Config{
				Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast,
				ServerWorkers: 1, Groups: specs,
			})
			if err != nil {
				b.Fatalf("NewStore: %v", err)
			}
			b.Cleanup(func() { _ = store.Close() })
			ctx := benchCtx(b)

			regs := make([]*Register, keyCount)
			for i := range regs {
				reg, err := store.Register(fmt.Sprintf("bench-key-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				regs[i] = reg
				if err := reg.Writer().Write(ctx, []byte("seed")); err != nil {
					b.Fatalf("seed write key %d: %v", i, err)
				}
			}

			// Fix the offered concurrency at `workers` regardless of the
			// GOMAXPROCS pin: RunParallel spawns GOMAXPROCS×p goroutines.
			b.SetParallelism((workers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each worker claims one key (as in StoreParallelKeys), so
				// handles keep their one-op-at-a-time contract and the key
				// set — hence the group load mix — is identical across
				// group counts.
				idx := int(next.Add(1)-1) % keyCount
				reg := regs[idx]
				reader, err := reg.Reader(1)
				if err != nil {
					b.Fatal(err)
				}
				i := 0
				for pb.Next() {
					if i%2 == 0 {
						if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
							b.Fatalf("write: %v", err)
						}
					} else {
						if _, err := reader.Read(ctx); err != nil {
							b.Fatalf("read: %v", err)
						}
					}
					i++
				}
			})
		})
	}
}

// BenchmarkPipelinedRead measures one reader handle driving the async read
// API with a fixed window of in-flight operations over the in-memory
// transport. depth=1 is the serial baseline (ReadAsync+Result degenerates to
// Read).
//
// The latency=0 variants isolate the per-operation CPU cost: round trips on
// the zero-delay in-memory network are nearly free, so the depth-16 multiple
// over depth-1 there is bounded by how much scheduling/batching overhead
// pipelining can amortise (and by the host's core count — on a single-core
// container the two depths compete for the same CPU). The latency=200µs
// variants model a real network round trip, the regime pipelining exists
// for: a serial reader pays the full delay per operation while a depth-16
// pipeline overlaps sixteen of them, so ops/sec scale by roughly the depth
// (BENCH_5.json records both ratios; ≥3× at depth ≥ 8 is the acceptance
// gate).
func BenchmarkPipelinedRead(b *testing.B) {
	for _, lat := range []time.Duration{0, 200 * time.Microsecond} {
		for _, depth := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("latency=%s/depth=%d", lat, depth), func(b *testing.B) {
				benchmarkPipelinedRead(b, depth, lat)
			})
		}
	}
}

func benchmarkPipelinedRead(b *testing.B, depth int, delay time.Duration) {
	store, err := NewStore(Config{
		Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast,
		PipelineDepth: depth, Transport: InMemory(WithDelay(delay)),
	})
	if err != nil {
		b.Fatalf("NewStore: %v", err)
	}
	b.Cleanup(func() { _ = store.Close() })
	reg, err := store.Register("bench")
	if err != nil {
		b.Fatal(err)
	}
	ctx := benchCtx(b)
	if err := reg.Writer().Write(ctx, []byte("bench-value")); err != nil {
		b.Fatalf("seed write: %v", err)
	}
	reader, err := reg.Reader(1)
	if err != nil {
		b.Fatal(err)
	}

	window := make([]*ReadFuture, 0, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(window) == depth {
			if _, err := window[0].Result(ctx); err != nil {
				b.Fatalf("read: %v", err)
			}
			window = window[1:]
		}
		f, err := reader.ReadAsync(ctx)
		if err != nil {
			b.Fatalf("ReadAsync: %v", err)
		}
		window = append(window, f)
	}
	for _, f := range window {
		if _, err := f.Result(ctx); err != nil {
			b.Fatalf("drain: %v", err)
		}
	}
	b.StopTimer()
	stats := store.Stats()
	if ops := stats.Reads + stats.Writes; ops > 0 {
		b.ReportMetric(float64(stats.DeliveredMsgs)/float64(ops), "msgs/op")
		b.ReportMetric(float64(stats.FramesDelivered)/float64(ops), "frames/op")
	}
}

// BenchmarkPipelinedReadTCP is BenchmarkPipelinedRead over real loopback
// sockets, where the frames/op metric shows the wire-level batching: at
// depth 16 many operations share each length-prefixed frame.
func BenchmarkPipelinedReadTCP(b *testing.B) {
	for _, depth := range []int{1, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchmarkPipelinedReadSocket(b, depth, TCP(nil))
		})
	}
}

// BenchmarkPipelinedReadUDP is the same workload over the batched-syscall
// datagram transport: every request and acknowledgement rides sendmmsg/
// recvmmsg batches through per-sender dedup windows, so at depth 16 the
// frames/op metric shows datagram-level batching just as TCP shows frame
// batching.
func BenchmarkPipelinedReadUDP(b *testing.B) {
	for _, depth := range []int{1, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchmarkPipelinedReadSocket(b, depth, UDP(nil))
		})
	}
}

// benchmarkPipelinedReadSocket drives one reader's pipelined reads over a
// real socket backend on loopback.
func benchmarkPipelinedReadSocket(b *testing.B, depth int, tr Transport) {
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast, PipelineDepth: depth, Transport: tr})
	if err != nil {
		b.Fatalf("NewStore: %v", err)
	}
	b.Cleanup(func() { _ = store.Close() })
	reg, err := store.Register("bench")
	if err != nil {
		b.Fatal(err)
	}
	ctx := benchCtx(b)
	if err := reg.Writer().Write(ctx, []byte("bench-value")); err != nil {
		b.Fatalf("seed write: %v", err)
	}
	reader, err := reg.Reader(1)
	if err != nil {
		b.Fatal(err)
	}
	window := make([]*ReadFuture, 0, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(window) == depth {
			if _, err := window[0].Result(ctx); err != nil {
				b.Fatalf("read: %v", err)
			}
			window = window[1:]
		}
		f, err := reader.ReadAsync(ctx)
		if err != nil {
			b.Fatalf("ReadAsync: %v", err)
		}
		window = append(window, f)
	}
	for _, f := range window {
		if _, err := f.Result(ctx); err != nil {
			b.Fatalf("drain: %v", err)
		}
	}
	b.StopTimer()
	stats := store.Stats()
	if ops := stats.Reads + stats.Writes; ops > 0 {
		b.ReportMetric(float64(stats.FramesDelivered)/float64(ops), "frames/op")
	}
}

// BenchmarkSaturation measures sustained read throughput at a fixed 4-core
// budget: GOMAXPROCS is pinned to 4, each server runs 4 key-shard workers,
// and one reader per key keeps a deep pipeline full over 4 registers at
// once. The reported ops/sec is what each backend sustains when the CPU —
// not a single operation's round-trip — is the bottleneck, which is the
// regime the raw-speed transport tier exists for. (On machines with fewer
// than 4 CPUs the pin is a no-op upper bound; compare backends within one
// run, not across machines.)
func BenchmarkSaturation(b *testing.B) {
	backends := []struct {
		name string
		tr   Transport
	}{
		{"inmem", nil},
		{"tcp", TCP(nil)},
		{"udp", UDP(nil)},
	}
	const keyCount = 4
	const depth = 32
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			prev := runtime.GOMAXPROCS(4)
			defer runtime.GOMAXPROCS(prev)
			store, err := NewStore(Config{
				Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast,
				ServerWorkers: 4, PipelineDepth: depth, Transport: be.tr,
			})
			if err != nil {
				b.Fatalf("NewStore: %v", err)
			}
			b.Cleanup(func() { _ = store.Close() })
			ctx := benchCtx(b)
			readers := make([]Reader, keyCount)
			for k := 0; k < keyCount; k++ {
				reg, err := store.Register(fmt.Sprintf("sat-%d", k))
				if err != nil {
					b.Fatal(err)
				}
				if err := reg.Writer().Write(ctx, []byte("bench-value")); err != nil {
					b.Fatalf("seed write: %v", err)
				}
				if readers[k], err = reg.Reader(1); err != nil {
					b.Fatal(err)
				}
			}
			// Round-robin submission keeps every handle at most depth deep
			// while the combined window holds keyCount*depth operations in
			// flight — enough concurrency to saturate the 4 worker shards.
			type inflightRead struct {
				f   *ReadFuture
				key int
			}
			var retries int
			// The stall deadline and resubmission bound come from the public
			// RetryPolicy — the same discipline ReadWithRetry applies to
			// blocking callers, replayed here at the future level so the
			// pipelined window keeps its depth. stall is reused across
			// harvests (a per-op context.WithTimeout would dominate the
			// allocs/op the bench exists to measure); aborted is a
			// pre-cancelled context for abandoning stalled reads.
			policy := RetryPolicy{Attempts: 8, Timeout: 5 * time.Second}.withDefaults()
			stall := time.NewTimer(time.Hour)
			stall.Stop()
			defer stall.Stop()
			aborted, abort := context.WithCancel(context.Background())
			abort()
			// harvest resolves one in-flight read. The lossy backends can
			// strand an operation outright — the protocols never retransmit,
			// so an op that loses more datagrams than its quorum slack waits
			// forever — in which case the bench does what a real client on a
			// lossy network does: abandon the stalled read (freeing its
			// pipeline slot) and submit a replacement, counted in retries. A
			// loss streak outlasting the policy's attempts fails the bench
			// instead of hanging it.
			harvest := func(p inflightRead) {
				for attempt := 1; ; attempt++ {
					stall.Reset(policy.Timeout)
					select {
					case <-p.f.Done():
						if !stall.Stop() {
							<-stall.C
						}
						if _, err := p.f.Result(ctx); err != nil {
							b.Fatalf("read: %v", err)
						}
						return
					case <-stall.C:
						if attempt >= policy.Attempts {
							b.Fatalf("read stranded after %d attempts of %v each", policy.Attempts, policy.Timeout)
						}
						retries++
						_, err := p.f.Result(aborted) // aborts the stalled read
						if !errors.Is(err, context.Canceled) && err != nil {
							b.Fatalf("abandoning stalled read: %v", err)
						}
						f, err := readers[p.key].ReadAsync(ctx)
						if err != nil {
							b.Fatalf("retry ReadAsync: %v", err)
						}
						p.f = f
					}
				}
			}
			window := make([]inflightRead, 0, keyCount*depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(window) >= keyCount*depth {
					harvest(window[0])
					window = window[1:]
				}
				f, err := readers[i%keyCount].ReadAsync(ctx)
				if err != nil {
					b.Fatalf("ReadAsync: %v", err)
				}
				window = append(window, inflightRead{f: f, key: i % keyCount})
			}
			for _, p := range window {
				harvest(p)
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "ops/sec")
			}
			if retries > 0 {
				b.ReportMetric(float64(retries), "retries")
			}
		})
	}
}

// BenchmarkConcurrentReaders measures aggregate read throughput with several
// readers sharing the register, the regime where the paper's bound on R
// matters.
func BenchmarkConcurrentReaders(b *testing.B) {
	for _, readers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("R=%d", readers), func(b *testing.B) {
			servers := MinServersForFast(readers, 1, 0)
			cluster := benchCluster(b, Config{Servers: servers, Faulty: 1, Readers: readers, Protocol: ProtocolFast})
			ctx := benchCtx(b)
			if err := cluster.Writer().Write(ctx, []byte("seed")); err != nil {
				b.Fatal(err)
			}
			handles := cluster.Readers()
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each parallel worker uses one of the reader handles,
				// cycling through the available ones. Handles serialise
				// their own operations, matching the model's one-operation-
				// at-a-time clients.
				idx := int(next.Add(1)-1) % len(handles)
				reader := handles[idx]
				for pb.Next() {
					if _, err := reader.Read(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
