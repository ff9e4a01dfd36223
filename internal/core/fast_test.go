package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/driver"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"

	_ "fastread/internal/abd"
	_ "fastread/internal/maxmin"
)

func TestReadBeforeAnyWriteReturnsBottom(t *testing.T) {
	c := newTestCluster(t, quorum.Config{Servers: 4, Faulty: 1, Readers: 1})
	res := c.read(1)
	if !res.Value.IsBottom() {
		t.Errorf("read before write returned %s, want ⊥", res.Value)
	}
	if res.Timestamp != 0 {
		t.Errorf("timestamp = %d, want 0", res.Timestamp)
	}
	if res.RoundTrips != 1 {
		t.Errorf("round trips = %d, want 1", res.RoundTrips)
	}
}

func TestWriteThenReadReturnsWrittenValue(t *testing.T) {
	c := newTestCluster(t, quorum.Config{Servers: 4, Faulty: 1, Readers: 1})
	c.write("v1")
	res := c.read(1)
	if !res.Value.Equal(types.Value("v1")) {
		t.Errorf("read returned %s, want v1", res.Value)
	}
	if res.Timestamp != 1 {
		t.Errorf("timestamp = %d, want 1", res.Timestamp)
	}
	if !res.PredicateHeld {
		t.Error("predicate should hold after a complete write")
	}
}

func TestSequentialWritesAndReadsAreMonotone(t *testing.T) {
	cfg := quorum.Config{Servers: 7, Faulty: 1, Readers: 2}
	c := newTestCluster(t, cfg)
	last := types.Timestamp(0)
	for i := 1; i <= 10; i++ {
		c.write(fmt.Sprintf("v%d", i))
		for r := 1; r <= cfg.Readers; r++ {
			res := c.read(r)
			if res.Timestamp < last {
				t.Fatalf("read by r%d went backwards: %d after %d", r, res.Timestamp, last)
			}
			if res.Timestamp != types.Timestamp(i) {
				t.Fatalf("read by r%d after write %d returned ts=%d", r, i, res.Timestamp)
			}
			if !res.Value.Equal(types.Value(fmt.Sprintf("v%d", i))) {
				t.Fatalf("read by r%d returned %s, want v%d", r, res.Value, i)
			}
			last = res.Timestamp
		}
	}
	writes, rounds := c.writer.Stats()
	if writes != 10 || rounds != 10 {
		t.Errorf("writer stats = %d writes / %d rounds, want 10/10", writes, rounds)
	}
	for r, rd := range c.readers {
		reads, rounds, _ := rd.Stats()
		if reads != rounds {
			t.Errorf("reader %d used %d rounds for %d reads; every read must be fast", r+1, rounds, reads)
		}
	}
}

func TestWriteBottomRejected(t *testing.T) {
	c := newTestCluster(t, quorum.Config{Servers: 4, Faulty: 1, Readers: 1})
	if err := c.writer.Write(c.ctx(), types.Bottom()); !errors.Is(err, ErrBottomWrite) {
		t.Errorf("writing ⊥: err = %v, want ErrBottomWrite", err)
	}
}

func TestToleratesCrashOfTServers(t *testing.T) {
	cfg := quorum.Config{Servers: 7, Faulty: 2, Readers: 1}
	c := newTestCluster(t, cfg)
	c.write("before-crash")

	// Crash t servers; both writes and reads must still terminate and stay
	// atomic.
	c.net.Isolate(types.Server(1))
	c.net.Isolate(types.Server(2))

	res := c.read(1)
	if !res.Value.Equal(types.Value("before-crash")) {
		t.Errorf("read after crashes returned %s", res.Value)
	}
	c.write("after-crash")
	res = c.read(1)
	if !res.Value.Equal(types.Value("after-crash")) {
		t.Errorf("read after post-crash write returned %s", res.Value)
	}
}

func TestIncompleteWriteReadsNeverGoBackwards(t *testing.T) {
	// A write that reaches only part of the system: the first reader may
	// return either the old or the new value, but once some reader returns
	// the new value no later read may return the old one (atomicity
	// condition 4). With the fast algorithm and R < S/t − 2 the predicate
	// arranges exactly that.
	cfg := quorum.Config{Servers: 7, Faulty: 1, Readers: 3}
	c := newTestCluster(t, cfg)
	c.write("v1")

	// Block the writer from reaching all but one server, then attempt a
	// write that cannot complete.
	for i := 2; i <= cfg.Servers; i++ {
		c.net.Hold(types.Writer(), types.Server(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := c.writer.Write(ctx, types.Value("v2"))
	if err == nil {
		t.Fatal("write should not complete while blocked from S-1 servers")
	}

	// Readers now run; whatever they return must be monotone non-decreasing
	// and each value must be consistent with its timestamp.
	lowWater := types.Timestamp(0)
	for round := 0; round < 6; round++ {
		for r := 1; r <= cfg.Readers; r++ {
			res := c.read(r)
			if res.Timestamp < lowWater {
				t.Fatalf("atomicity violation: read ts=%d after a read returned ts=%d", res.Timestamp, lowWater)
			}
			lowWater = res.Timestamp
			switch res.Timestamp {
			case 1:
				if !res.Value.Equal(types.Value("v1")) {
					t.Fatalf("ts=1 must carry v1, got %s", res.Value)
				}
			case 2:
				if !res.Value.Equal(types.Value("v2")) {
					t.Fatalf("ts=2 must carry v2, got %s", res.Value)
				}
			default:
				t.Fatalf("unexpected timestamp %d", res.Timestamp)
			}
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	cfg := quorum.Config{Servers: 9, Faulty: 1, Readers: 4}
	c := newTestCluster(t, cfg)

	const writes = 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= writes; i++ {
			if err := c.writer.Write(c.ctx(), types.Value(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()

	type obs struct {
		reader int
		ts     types.Timestamp
	}
	results := make(chan obs, 1024)
	for r := 1; r <= cfg.Readers; r++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			prev := types.Timestamp(0)
			for i := 0; i < 40; i++ {
				res, err := c.readers[idx-1].Read(c.ctx())
				if err != nil {
					t.Errorf("reader %d: %v", idx, err)
					return
				}
				if res.Timestamp < prev {
					t.Errorf("reader %d observed ts=%d after ts=%d", idx, res.Timestamp, prev)
					return
				}
				prev = res.Timestamp
				results <- obs{reader: idx, ts: res.Timestamp}
			}
		}(r)
	}
	wg.Wait()
	close(results)
	count := 0
	for range results {
		count++
	}
	if count != cfg.Readers*40 {
		t.Errorf("collected %d reads, want %d", count, cfg.Readers*40)
	}
}

// countingNode counts the messages its owner sends.
type countingNode struct {
	transport.Node
	sends atomic.Int64
}

func (n *countingNode) Send(to types.ProcessID, kind string, payload []byte) error {
	n.sends.Add(1)
	return n.Node.Send(to, kind, payload)
}

func TestEveryReadIsSingleRoundTrip(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 1, Readers: 1}
	var reader *countingNode
	c := newTestCluster(t, cfg, withReaderNode(func(n transport.Node) transport.Node {
		reader = &countingNode{Node: n}
		return reader
	}))
	for i := 0; i < 5; i++ {
		c.write(fmt.Sprintf("v%d", i))
		c.read(1)
	}
	reads, rounds, _ := c.readers[0].Stats()
	if reads != 5 || rounds != 5 {
		t.Errorf("reader stats = %d reads / %d rounds, want 5/5", reads, rounds)
	}
	// Exactly S read messages per read operation: one broadcast, no second
	// phase.
	if sends := reader.sends.Load(); sends != int64(5*cfg.Servers) {
		t.Errorf("reader sent %d messages for 5 reads, want %d (S per read)", sends, 5*cfg.Servers)
	}
}

func TestServerStateAfterOperations(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	c := newTestCluster(t, cfg)
	c.write("v1")
	c.read(1)

	reachedTS1 := 0
	for _, srv := range c.servers {
		// Operations return on S−t acks, so the slowest server may still be
		// handling its copies: wait for it instead of racing it.
		for deadline := time.Now().Add(5 * time.Second); srv.TotalMutations() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		st := srv.State()
		if st.Value.TS == 1 {
			reachedTS1++
			if !st.Value.Cur.Equal(types.Value("v1")) {
				t.Errorf("server %v stores %s at ts=1", srv.ID(), st.Value.Cur)
			}
			if !st.Seen.Has(types.Writer()) && !st.Seen.Has(types.Reader(1)) {
				t.Errorf("server %v seen=%v should contain a client", srv.ID(), st.Seen)
			}
		}
		if st.Mutations == 0 {
			t.Errorf("server %v recorded no state mutations", srv.ID())
		}
	}
	if reachedTS1 < cfg.AckQuorum() {
		t.Errorf("only %d servers reached ts=1, want ≥ %d", reachedTS1, cfg.AckQuorum())
	}
}

func TestServerIgnoresMalformedAndForeignMessages(t *testing.T) {
	cfg := quorum.Config{Servers: 3, Faulty: 1, Readers: 1}
	c := newTestCluster(t, cfg)

	// A rogue node that is neither the writer nor a legitimate reader sends
	// protocol messages; servers must ignore them.
	rogue, err := c.net.Join(types.Reader(7))
	if err != nil {
		t.Fatal(err)
	}
	forged := &wire.Message{Op: wire.OpWrite, TS: 99, Cur: types.Value("evil"), RCounter: 0}
	for i := 1; i <= cfg.Servers; i++ {
		if err := rogue.Send(types.Server(i), forged.Kind(), wire.MustEncode(forged)); err != nil {
			t.Fatal(err)
		}
		if err := rogue.Send(types.Server(i), "junk", []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	// Give the servers a moment to (not) process the garbage.
	time.Sleep(50 * time.Millisecond)
	for _, srv := range c.servers {
		if ts := srv.State().Value.TS; ts != 0 {
			t.Errorf("server %v adopted forged timestamp %d", srv.ID(), ts)
		}
	}
	c.write("v1")
	res := c.read(1)
	if !res.Value.Equal(types.Value("v1")) {
		t.Errorf("read returned %s, want v1", res.Value)
	}
}

func TestServerIgnoresStaleReadMessages(t *testing.T) {
	// A server that already answered rCounter=2 for a reader must ignore a
	// late-arriving message from rCounter=1 (the counter check of Figure 2
	// line 26, which Lemma 4 case 〈5〉2 depends on).
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	node, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{ID: types.Server(1), Readers: 2}, node)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)

	reader, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	sendAndWait := func(m *wire.Message) *wire.Message {
		t.Helper()
		if err := reader.Send(types.Server(1), m.Kind(), wire.MustEncode(m)); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-reader.Inbox():
			decoded, err := wire.Decode(got.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return decoded
		case <-time.After(time.Second):
			return nil
		}
	}

	if ack := sendAndWait(&wire.Message{Op: wire.OpRead, RCounter: 2}); ack == nil {
		t.Fatal("no ack for rCounter=2")
	}
	if ack := sendAndWait(&wire.Message{Op: wire.OpRead, RCounter: 1}); ack != nil {
		t.Fatalf("server answered a stale rCounter=1 message: %+v", ack)
	}
	if ack := sendAndWait(&wire.Message{Op: wire.OpRead, RCounter: 3}); ack == nil {
		t.Fatal("no ack for rCounter=3")
	}
}

func TestNewServerValidation(t *testing.T) {
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	node, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(ServerConfig{ID: types.Writer()}, node); err == nil {
		t.Error("server with writer identity accepted")
	}
	if _, err := NewServer(ServerConfig{ID: types.Server(1), Readers: -1}, node); err == nil {
		t.Error("negative reader count accepted")
	}
	if _, err := NewServer(ServerConfig{ID: types.Server(1)}, nil); err == nil {
		t.Error("nil node accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}

	wNode, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	rNode, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	r9Node, err := net.Join(types.Reader(9))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := NewWriter(WriterConfig{Quorum: cfg}, rNode); !errors.Is(err, ErrNotWriter) {
		t.Errorf("writer on reader node: err = %v", err)
	}
	if _, err := NewWriter(WriterConfig{Quorum: quorum.Config{}}, wNode); err == nil {
		t.Error("writer with invalid quorum accepted")
	}
	if _, err := NewWriter(WriterConfig{Quorum: cfg, Byzantine: true}, wNode); err == nil {
		t.Error("byzantine writer without signer accepted")
	}
	if _, err := NewWriter(WriterConfig{Quorum: cfg}, nil); err == nil {
		t.Error("nil node accepted for writer")
	}

	if _, err := NewReader(ReaderConfig{Quorum: cfg}, wNode); !errors.Is(err, ErrNotReader) {
		t.Errorf("reader on writer node: err = %v", err)
	}
	if _, err := NewReader(ReaderConfig{Quorum: cfg}, r9Node); !errors.Is(err, ErrNotReader) {
		t.Errorf("reader with out-of-range index: err = %v", err)
	}
	if _, err := NewReader(ReaderConfig{Quorum: cfg}, nil); err == nil {
		t.Error("nil node accepted for reader")
	}
}

func TestReadInterruptedByContext(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	c := newTestCluster(t, cfg)
	// Block every server from answering reader 1.
	for i := 1; i <= cfg.Servers; i++ {
		c.net.Hold(types.Reader(1), types.Server(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.readers[0].Read(ctx); err == nil {
		t.Error("read should fail when no server is reachable")
	}
}

// TestRestartedWriterFailsVisibly pins the writer's incarnation guard: the
// model's single writer does not restart, so a writer process that comes
// back with reset timestamps against servers holding a previous
// incarnation's value must TIME OUT rather than report success for a write
// the servers discarded. The previous incarnation either got further (the
// acks carry a timestamp this incarnation never issued) or reached exactly
// this write's timestamp (the acks carry ts=1 with the old value, which the
// server keeps: it adopts only strictly newer timestamps). The equal case
// runs through the fast, abd, regular and maxmin drivers.
func TestRestartedWriterFailsVisibly(t *testing.T) {
	for _, tc := range []struct {
		name, driver string
		prevTS       types.Timestamp
	}{
		{"newer", "fast", 5},
		{"equal", "fast", 1},
		{"equal/abd", "abd", 1},
		{"equal/regular", "regular", 1},
		{"equal/maxmin", "maxmin", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drv, ok := driver.Lookup(tc.driver)
			if !ok {
				t.Fatalf("no driver %q", tc.driver)
			}
			cfg := quorum.Config{Servers: 1, Faulty: 0, Readers: 1}
			net := transport.NewInMemNetwork()
			t.Cleanup(func() { _ = net.Close() })
			sNode, err := net.Join(types.Server(1))
			if err != nil {
				t.Fatal(err)
			}
			srv, err := drv.NewServer(driver.ServerConfig{ID: types.Server(1), Quorum: cfg}, sNode)
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			t.Cleanup(srv.Stop)

			wNode, err := net.Join(types.Writer())
			if err != nil {
				t.Fatal(err)
			}
			// Previous incarnation: drive the server to prevTS with a raw
			// request on the writer identity, consuming the ack so the
			// restarted writer's engine never sees it.
			raw := wire.MustEncode(&wire.Message{Op: wire.OpWrite, TS: tc.prevTS, Cur: types.Value("old-incarnation")})
			if err := wNode.Send(types.Server(1), "write", raw); err != nil {
				t.Fatal(err)
			}
			select {
			case <-wNode.Inbox():
			case <-time.After(5 * time.Second):
				t.Fatal("no ack for the previous incarnation's write")
			}

			// "Restarted" writer: fresh client state (ts resets to 1) on the
			// same identity. Its write must fail by timeout, not silently
			// succeed.
			w, err := drv.NewWriter(driver.ClientConfig{Quorum: cfg}, wNode)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			err = w.Write(ctx, types.Value("new-incarnation"))
			if err == nil {
				t.Fatal("restarted writer's write reported success against the previous incarnation's state")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("restarted writer's write = %v, want deadline exceeded", err)
			}

			rNode, err := net.Join(types.Reader(1))
			if err != nil {
				t.Fatal(err)
			}
			r, err := drv.NewReader(driver.ClientConfig{Quorum: cfg}, rNode)
			if err != nil {
				t.Fatal(err)
			}
			rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer rcancel()
			res, err := r.Read(rctx)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Value.Equal(types.Value("old-incarnation")) || res.Timestamp != tc.prevTS {
				t.Fatalf("server holds %s at ts=%d, want the previous incarnation's value at ts=%d", res.Value, res.Timestamp, tc.prevTS)
			}
		})
	}
}
