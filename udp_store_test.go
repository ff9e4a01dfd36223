package fastread

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/atomicity"
	"fastread/internal/history"
	"fastread/internal/types"
)

// TestUDPStoreEndToEnd drives NewStore over the UDP backend on loopback for
// every registered protocol: every server, the writer and the reader is a
// real datagram endpoint with an ephemeral port, with batched send/receive
// syscalls on the hot path. Loopback keeps datagram loss out of the picture,
// so the protocol-visible behaviour must match the TCP and in-memory
// backends exactly; a clean shutdown must leak no goroutines.
func TestUDPStoreEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	protocols := []Protocol{ProtocolFast, ProtocolFastByzantine, ProtocolABD, ProtocolMaxMin, ProtocolRegular}
	for _, proto := range protocols {
		// NOT parallel: each run measures goroutine leakage against a global
		// baseline.
		t.Run(string(proto), func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			cfg := Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: proto, Transport: UDP(nil)}
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
				t.Error("UDP transport delivered no messages")
			}
			if stats.DedupDrops != 0 {
				// Loopback cannot duplicate datagrams; a nonzero count here
				// means the sequence windows are misfiring.
				t.Errorf("DedupDrops = %d on loopback, want 0", stats.DedupDrops)
			}

			if err := store.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestUDPStoreFaultInjectionUnsupported verifies the capability seam on the
// UDP backend.
func TestUDPStoreFaultInjectionUnsupported(t *testing.T) {
	store, err := NewStore(Config{Servers: 3, Faulty: 1, Readers: 1, Protocol: ProtocolABD, Transport: UDP(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if err := store.CrashServer(1); !errors.Is(err, ErrUnsupported) {
		t.Errorf("CrashServer on UDP = %v, want ErrUnsupported", err)
	}
	if _, err := store.Network(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Network on UDP = %v, want ErrUnsupported", err)
	}
}

// TestUDPPipelinedReadAtomicity runs the linearizability checker over
// histories produced with full read pipelines on the UDP backend — the
// regime where batch datagrams, arena-backed decoding and the dedup windows
// all operate at once. The histories must stay atomic, exactly as in memory.
func TestUDPPipelinedReadAtomicity(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{Servers: 7, Faulty: 1, Readers: 2, Protocol: ProtocolFast, ServerWorkers: 4, PipelineDepth: 8, Transport: UDP(nil)}},
		{"abd", Config{Servers: 5, Faulty: 2, Readers: 2, Protocol: ProtocolABD, ServerWorkers: 4, PipelineDepth: 8, Transport: UDP(nil)}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			store, err := NewStore(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			reg, err := store.Register("pipelined-udp")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			rec := history.NewRecorder()
			const writes = 30
			const readsPerReader = 60

			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 1; i <= writes; i++ {
					value := types.Value(fmt.Sprintf("uv%d", i))
					id := rec.Invoke(types.Writer(), history.OpWrite, value)
					if err := reg.Writer().Write(ctx, value); err != nil {
						rec.Fail(id)
						t.Errorf("write %d: %v", i, err)
						return
					}
					rec.Return(id, nil, types.Timestamp(i))
				}
			}()

			readersDone := make(chan struct{}, sc.cfg.Readers)
			for ri := 1; ri <= sc.cfg.Readers; ri++ {
				reader, err := reg.Reader(ri)
				if err != nil {
					t.Fatal(err)
				}
				go func(ri int, reader Reader) {
					pipelinedReads(ctx, t, rec, types.Reader(ri), reader, readsPerReader, sc.cfg.PipelineDepth)
					readersDone <- struct{}{}
				}(ri, reader)
			}
			<-done
			for i := 0; i < sc.cfg.Readers; i++ {
				<-readersDone
			}

			report, err := atomicity.CheckSWMR(rec.History())
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK {
				t.Fatalf("pipelined UDP history not atomic:\n%s", report)
			}
			if report.Reads == 0 || report.Writes == 0 {
				t.Fatalf("degenerate history: %d writes / %d reads", report.Writes, report.Reads)
			}
		})
	}
}

// TestUDPPacketDropQuorum is the loss-tolerance acceptance test: a receive
// filter suppresses every datagram one server sends, so clients can never
// hear from it — and every operation must still complete through the
// surviving S−t quorum, the protocols' core liveness claim on a lossy
// network.
func TestUDPPacketDropQuorum(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	scenarios := []struct {
		name   string
		proto  Protocol
		S, t   int
		silent string // server whose outbound datagrams all vanish
	}{
		{"fast", ProtocolFast, 4, 1, "s1"},
		{"abd", ProtocolABD, 3, 1, "s2"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var filtered atomic.Int64
			transport := UDP(nil, WithReceiveFilter(func(from string) bool {
				if from == sc.silent {
					filtered.Add(1)
					return false
				}
				return true
			}))
			store, err := NewStore(Config{Servers: sc.S, Faulty: sc.t, Readers: 1, Protocol: sc.proto, Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			reg, err := store.Register("lossy")
			if err != nil {
				t.Fatal(err)
			}
			reader, err := reg.Reader(1)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			for i := 1; i <= 5; i++ {
				want := fmt.Sprintf("survives-%d", i)
				if err := reg.Writer().Write(ctx, []byte(want)); err != nil {
					t.Fatalf("write %d under packet loss: %v", i, err)
				}
				res, err := reader.Read(ctx)
				if err != nil {
					t.Fatalf("read %d under packet loss: %v", i, err)
				}
				if string(res.Value) != want {
					t.Fatalf("read %d = %q, want %q", i, res.Value, want)
				}
			}
			// The operations complete on the S−t quorum, possibly before any
			// of the silenced server's acks has been received: give the
			// datagrams still in flight a moment to reach the filter.
			for deadline := time.Now().Add(2 * time.Second); filtered.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the receive filter never fired; the test dropped nothing")
				}
			}
		})
	}
}
