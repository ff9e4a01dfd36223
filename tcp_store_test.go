package fastread

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"fastread/internal/transport/framed"
)

// reserveLoopbackAddr picks a free loopback port by listening and closing.
func reserveLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// TestTCPStoreEndToEnd drives NewStore over the TCP backend on loopback for
// every registered protocol: every server, the writer and the reader is a
// real socket endpoint with an ephemeral port, and the protocol code is
// byte-for-byte what the in-memory deployments run. It checks read-your-write
// behaviour and timestamp monotonicity over real sockets, across two
// registers, then verifies a clean shutdown leaks no goroutines.
func TestTCPStoreEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	protocols := []Protocol{ProtocolFast, ProtocolFastByzantine, ProtocolABD, ProtocolMaxMin, ProtocolRegular}
	for _, proto := range protocols {
		// NOT parallel: each run measures goroutine leakage against a global
		// baseline.
		t.Run(string(proto), func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			cfg := Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: proto, Transport: TCP(nil)}
			store, err := NewStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			for _, key := range []string{"", "user/42"} {
				reg, err := store.Register(key)
				if err != nil {
					t.Fatal(err)
				}
				reader, err := reg.Reader(1)
				if err != nil {
					t.Fatal(err)
				}
				var lastVersion int64
				for i := 1; i <= 5; i++ {
					want := fmt.Sprintf("%s/payload-%d", key, i)
					if err := reg.Writer().Write(ctx, []byte(want)); err != nil {
						t.Fatalf("write %d on %q: %v", i, key, err)
					}
					// SWMR with no concurrent write: a read that starts after
					// the write completed must return the written value, on
					// every protocol (even the regular register).
					res, err := reader.Read(ctx)
					if err != nil {
						t.Fatalf("read %d on %q: %v", i, key, err)
					}
					if string(res.Value) != want {
						t.Fatalf("read %d on %q = %q, want %q", i, key, res.Value, want)
					}
					if res.Version < lastVersion {
						t.Fatalf("timestamp went backwards on %q: %d after %d", key, res.Version, lastVersion)
					}
					lastVersion = res.Version
				}
			}

			stats := store.Stats()
			if stats.Writes != 10 || stats.Reads != 10 {
				t.Errorf("stats = %d writes / %d reads, want 10/10", stats.Writes, stats.Reads)
			}
			if stats.DeliveredMsgs == 0 {
				t.Error("TCP transport delivered no messages")
			}

			if err := store.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// waitForGoroutines fails the test if the goroutine count does not return to
// (about) the baseline: sockets, executors, demux pumps and flushers must all
// terminate on Close.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// A small slack absorbs runtime-internal goroutines (e.g. finalizer
		// wakeups) that come and go independently of the store.
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPStoreFaultInjectionUnsupported verifies the capability seam: the
// TCP backend has no adversary, so the in-memory fault-injection surface
// degrades to a typed ErrUnsupported instead of pretending to work.
func TestTCPStoreFaultInjectionUnsupported(t *testing.T) {
	store, err := NewStore(Config{Servers: 3, Faulty: 1, Readers: 1, Protocol: ProtocolABD, Transport: TCP(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if err := store.CrashServer(1); !errors.Is(err, ErrUnsupported) {
		t.Errorf("CrashServer on TCP = %v, want ErrUnsupported", err)
	}
	// Index validation still applies before the capability check.
	if err := store.CrashServer(99); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("CrashServer(99) = %v, want ErrUnknownServer", err)
	}
}

// TestTCPStoreStaticBook pins every process to a pre-assigned loopback port
// through the public address book, the way a distributed deployment would be
// configured, and checks the deployment still serves operations.
func TestTCPStoreStaticBook(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	// Reserve ports by listening and closing; the gap is benign on loopback.
	book := map[string]string{}
	ids := []string{"s1", "s2", "s3", "w", "r1"}
	for _, id := range ids {
		addr, err := reserveLoopbackAddr()
		if err != nil {
			t.Fatal(err)
		}
		book[id] = addr
	}
	store, err := NewStore(Config{Servers: 3, Faulty: 1, Readers: 1, Protocol: ProtocolABD, Transport: TCP(book)})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg, err := store.Register("pinned")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Writer().Write(ctx, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	reader, _ := reg.Reader(1)
	res, err := reader.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v1" {
		t.Fatalf("read %q, want %q", res.Value, "v1")
	}
}

// TestTCPBookRejectsBadIdentity verifies book validation happens up front.
func TestTCPBookRejectsBadIdentity(t *testing.T) {
	_, err := NewStore(Config{Servers: 3, Faulty: 1, Readers: 1, Transport: TCP(map[string]string{"bogus": "127.0.0.1:1"})})
	if err == nil {
		t.Fatal("NewStore accepted a malformed TCP address book")
	}
}

// TestTCPPipelinedFramesPerOp is the batching acceptance test on real
// sockets: with a deep read pipeline, requests and coalesced
// acknowledgements ride shared batch frames, so the deployment-wide frame
// count per operation must drop BELOW one — against ~8 frames per serial
// read on this topology (one request and one ack frame per server).
func TestTCPPipelinedFramesPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	stats, _ := pipelinedTCPReads(t, "frames")
	totalOps := stats.Reads + stats.Writes
	framesPerOp := float64(stats.FramesDelivered) / float64(totalOps)
	t.Logf("frames=%d msgs=%d ops=%d frames/op=%.3f msgs/frame=%.1f",
		stats.FramesDelivered, stats.DeliveredMsgs, totalOps,
		framesPerOp, float64(stats.DeliveredMsgs)/float64(stats.FramesDelivered))
	// Socket nodes run the same inbound queue as in-memory ones, so the
	// high-water mark is reported on every backend.
	if stats.MailboxHighWater < 1 {
		t.Errorf("MailboxHighWater = %d after pipelined traffic, want >= 1", stats.MailboxHighWater)
	}
	if framesPerOp >= 1 {
		t.Errorf("frames/op = %.3f, want < 1 (batching not amortising)", framesPerOp)
	}
}

// TestDeliveredMsgsPerOpInMemAndTCP: DeliveredMsgs counts the same thing on
// both backends. A serial workload of one-round operations (k writes, then k
// reads with no write in flight) delivers S requests and S acks per
// operation, whether the acks travel as coalesced envelopes in memory or in
// batch frames over TCP. The acks a completed operation did not wait for
// arrive later, so the count is polled up to a deadline.
func TestDeliveredMsgsPerOpInMemAndTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	const servers, k = 4, 50
	perOp := make(map[string]float64)
	for _, tr := range []Transport{InMemory(), TCP(nil)} {
		store, reg := newRegister(t, Config{Servers: servers, Faulty: 1, Readers: 1, Transport: tr})
		ctx := testCtx(t)
		for i := 0; i < k; i++ {
			if err := reg.Writer().Write(ctx, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("%s: write: %v", tr, err)
			}
		}
		r, err := reg.Reader(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if _, err := r.Read(ctx); err != nil {
				t.Fatalf("%s: read: %v", tr, err)
			}
		}
		want := int64(2 * servers * 2 * k)
		got := store.Stats().DeliveredMsgs
		for deadline := time.Now().Add(10 * time.Second); got < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			got = store.Stats().DeliveredMsgs
		}
		if got != want {
			t.Errorf("%s: DeliveredMsgs = %d, want 2·S = %d per op over %d ops", tr, got, 2*servers, 2*k)
		}
		perOp[tr.String()] = float64(got) / float64(2*k)
	}
	if perOp["inmem"] != perOp["tcp"] {
		t.Errorf("delivered messages per op: inmem %.2f, tcp %.2f; want equal", perOp["inmem"], perOp["tcp"])
	}
}

// TestTCPPushDeliveryDropsNoAcks: the client's read loops deliver its
// acknowledgements themselves, one run each, and leave any backlog to the
// demux goroutine. A read loop that kept delivering other loops' traffic
// would leave its own socket unread and then dump a backlog past the
// inbound queue's bound, dropping acknowledgements; here every pipelined
// read completes and nothing is dropped at a full queue.
func TestTCPPushDeliveryDropsNoAcks(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	stats, store := pipelinedTCPReads(t, "acks")
	if stats.InboundDrops != 0 {
		t.Errorf("InboundDrops = %d, want 0; MailboxHighWater = %d (a socket queue refuses past %d); dropped at: %s",
			stats.InboundDrops, stats.MailboxHighWater, framed.InboxLen, socketDrops(store))
	}
}

// socketDrops names every process of a socket-backed store whose inbound
// queue dropped messages, with the count and the queue's high-water mark.
func socketDrops(store *Store) string {
	var out []string
	for _, g := range store.groups {
		ss, ok := g.session.(*socketSession)
		if !ok {
			continue
		}
		ss.mu.Lock()
		for _, n := range ss.nodes {
			if st := n.Stats(); st.InboundDrops != 0 {
				out = append(out, fmt.Sprintf("%v dropped %d (high water %d)", n.ID(), st.InboundDrops, st.MailboxHighWater))
			}
		}
		ss.mu.Unlock()
	}
	if len(out) == 0 {
		return "no process"
	}
	return strings.Join(out, ", ")
}

// pipelinedTCPReads runs 4000 reads of one key on a TCP store, 64 in flight
// from one reader in a FIFO window, fails the test unless every one
// completes, and returns the store's stats and the store, which the test's
// cleanup closes.
func pipelinedTCPReads(t *testing.T, key string) (Stats, *Store) {
	t.Helper()
	const depth = 64
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast, PipelineDepth: depth, Transport: TCP(nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	reg, err := store.Register(key)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := reg.Writer().Write(ctx, []byte("seed")); err != nil {
		t.Fatal(err)
	}

	const ops = 4000
	window := make([]*ReadFuture, 0, depth)
	for i := 0; i < ops; i++ {
		if len(window) == depth {
			if _, err := window[0].Result(ctx); err != nil {
				t.Fatalf("read %d: %v", i-depth, err)
			}
			window = window[1:]
		}
		f, err := reader.ReadAsync(ctx)
		if err != nil {
			t.Fatalf("ReadAsync %d: %v", i, err)
		}
		window = append(window, f)
	}
	for _, f := range window {
		if _, err := f.Result(ctx); err != nil {
			t.Fatal(err)
		}
	}

	stats := store.Stats()
	if totalOps := stats.Reads + stats.Writes; totalOps < ops {
		t.Fatalf("only %d ops completed", totalOps)
	}
	return stats, store
}

// TestHandlesFailFastAfterClose is the regression test for operations on
// handles outliving their store: they must fail immediately with
// ErrStoreClosed rather than waiting out the caller's context against a
// network that can never answer.
func TestHandlesFailFastAfterClose(t *testing.T) {
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Register("k")
	if err != nil {
		t.Fatal(err)
	}
	writer := reg.Writer()
	reader, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := writer.Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// No deadline on the context: before the fail-fast check these calls
	// hung forever.
	start := time.Now()
	if err := writer.Write(ctx, []byte("after")); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Write after Close = %v, want ErrStoreClosed", err)
	}
	if _, err := reader.Read(ctx); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Read after Close = %v, want ErrStoreClosed", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("post-close operations took %v, want immediate failure", elapsed)
	}
	if _, err := store.Register("other"); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Register after Close = %v, want ErrStoreClosed", err)
	}
}
