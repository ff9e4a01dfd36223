package fastread

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
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
	if _, err := store.Network(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Network on TCP = %v, want ErrUnsupported", err)
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
	const depth = 64
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast, PipelineDepth: depth, Transport: TCP(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg, err := store.Register("frames")
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
	totalOps := stats.Reads + stats.Writes
	if totalOps < ops {
		t.Fatalf("only %d ops completed", totalOps)
	}
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
