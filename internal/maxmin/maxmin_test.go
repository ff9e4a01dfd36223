package maxmin

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

type deployment struct {
	t       *testing.T
	cfg     quorum.Config
	net     *transport.InMemNetwork
	servers []*Server
}

func newDeployment(t *testing.T, cfg quorum.Config) *deployment {
	t.Helper()
	d := &deployment{t: t, cfg: cfg, net: transport.NewInMemNetwork()}
	t.Cleanup(func() { _ = d.net.Close() })
	for i := 1; i <= cfg.Servers; i++ {
		node, err := d.net.Join(types.Server(i))
		if err != nil {
			t.Fatalf("join server %d: %v", i, err)
		}
		srv, err := NewServer(ServerConfig{ID: types.Server(i), Quorum: cfg}, node)
		if err != nil {
			t.Fatalf("new server %d: %v", i, err)
		}
		srv.Start()
		d.servers = append(d.servers, srv)
		t.Cleanup(srv.Stop)
	}
	return d
}

func (d *deployment) ctx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	d.t.Cleanup(cancel)
	return ctx
}

func (d *deployment) writer() *Writer {
	d.t.Helper()
	node, err := d.net.Join(types.Writer())
	if err != nil {
		d.t.Fatal(err)
	}
	w, err := NewWriter(ClientConfig{Quorum: d.cfg}, node)
	if err != nil {
		d.t.Fatal(err)
	}
	return w
}

func (d *deployment) reader(i int) *Reader {
	d.t.Helper()
	node, err := d.net.Join(types.Reader(i))
	if err != nil {
		d.t.Fatal(err)
	}
	r, err := NewReader(ClientConfig{Quorum: d.cfg}, node)
	if err != nil {
		d.t.Fatal(err)
	}
	return r
}

func TestReadBeforeWriteReturnsBottom(t *testing.T) {
	d := newDeployment(t, quorum.Config{Servers: 4, Faulty: 1, Readers: 2})
	r := d.reader(1)
	res, err := r.Read(d.ctx())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.IsBottom() || res.Timestamp != 0 {
		t.Errorf("read = %s ts=%d, want ⊥ ts=0", res.Value, res.Timestamp)
	}
}

func TestWriteThenReadReturnsValue(t *testing.T) {
	d := newDeployment(t, quorum.Config{Servers: 4, Faulty: 1, Readers: 2})
	w := d.writer()
	r := d.reader(1)
	if err := w.Write(d.ctx(), types.Value("hello")); err != nil {
		t.Fatal(err)
	}
	res, err := r.Read(d.ctx())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(types.Value("hello")) || res.Timestamp != 1 {
		t.Errorf("read = %s ts=%d, want hello ts=1", res.Value, res.Timestamp)
	}
	if res.RoundTrips != 1 {
		t.Errorf("client round trips = %d, want 1", res.RoundTrips)
	}
}

func TestSequentialReadsMonotone(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 3}
	d := newDeployment(t, cfg)
	w := d.writer()
	readers := []*Reader{d.reader(1), d.reader(2), d.reader(3)}

	var last types.Timestamp
	for i := 1; i <= 8; i++ {
		if err := w.Write(d.ctx(), types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		for ri, r := range readers {
			res, err := r.Read(d.ctx())
			if err != nil {
				t.Fatal(err)
			}
			if res.Timestamp < last {
				t.Fatalf("reader %d saw ts=%d after ts=%d", ri+1, res.Timestamp, last)
			}
			if res.Timestamp != types.Timestamp(i) {
				t.Fatalf("reader %d saw ts=%d after write %d completed", ri+1, res.Timestamp, i)
			}
			last = res.Timestamp
		}
	}
}

func TestGossipPropagatesIncompleteWrite(t *testing.T) {
	// The written value reaches only one server (the writer is blocked from
	// the rest and the write cannot complete). A read triggers gossip, which
	// spreads the highest timestamp to a majority; the read returns the
	// minimum over majority-maxima, so it may return either the old or the
	// new value — but after it returns the new value, a subsequent read must
	// not return the old one.
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 2}
	d := newDeployment(t, cfg)
	w := d.writer()
	r1 := d.reader(1)
	r2 := d.reader(2)

	if err := w.Write(d.ctx(), types.Value("v1")); err != nil {
		t.Fatal(err)
	}

	for i := 2; i <= cfg.Servers; i++ {
		d.net.Block(types.Writer(), types.Server(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := w.Write(ctx, types.Value("v2")); err == nil {
		t.Fatal("blocked write should not complete")
	}

	var last types.Timestamp
	for i := 0; i < 6; i++ {
		for _, r := range []*Reader{r1, r2} {
			res, err := r.Read(d.ctx())
			if err != nil {
				t.Fatal(err)
			}
			if res.Timestamp < last {
				t.Fatalf("new/old inversion: ts=%d after ts=%d", res.Timestamp, last)
			}
			last = res.Timestamp
		}
	}
}

func TestToleratesMinorityCrash(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 1}
	d := newDeployment(t, cfg)
	w := d.writer()
	r := d.reader(1)
	if err := w.Write(d.ctx(), types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	d.net.Crash(types.Server(4))
	d.net.Crash(types.Server(5))
	if err := w.Write(d.ctx(), types.Value("v2")); err != nil {
		t.Fatal(err)
	}
	res, err := r.Read(d.ctx())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(types.Value("v2")) {
		t.Errorf("read = %s, want v2", res.Value)
	}
}

func TestConcurrentReadersDistinctGossipRounds(t *testing.T) {
	cfg := quorum.Config{Servers: 7, Faulty: 3, Readers: 4}
	d := newDeployment(t, cfg)
	w := d.writer()
	if err := w.Write(d.ctx(), types.Value("base")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		r := d.reader(i)
		wg.Add(1)
		go func(r *Reader, idx int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				res, err := r.Read(d.ctx())
				if err != nil {
					t.Errorf("reader %d read %d: %v", idx, j, err)
					return
				}
				if res.Value.IsBottom() {
					t.Errorf("reader %d read %d returned ⊥ after a completed write", idx, j)
					return
				}
			}
		}(r, i)
	}
	wg.Wait()
}

func TestWriterValidation(t *testing.T) {
	cfg := quorum.Config{Servers: 3, Faulty: 1, Readers: 1}
	d := newDeployment(t, cfg)
	node, err := d.net.Join(types.Reader(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(ClientConfig{Quorum: cfg}, node); !errors.Is(err, ErrNotWriter) {
		t.Errorf("err = %v, want ErrNotWriter", err)
	}
	if _, err := NewReader(ClientConfig{Quorum: cfg}, nil); err == nil {
		t.Error("nil node accepted")
	}
	wNode, err := d.net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(ClientConfig{Quorum: cfg}, wNode); !errors.Is(err, ErrNotReader) {
		t.Errorf("err = %v, want ErrNotReader", err)
	}
	w, err := NewWriter(ClientConfig{Quorum: cfg}, wNode)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(d.ctx(), types.Bottom()); !errors.Is(err, ErrBottomWrite) {
		t.Errorf("err = %v, want ErrBottomWrite", err)
	}
	if _, err := NewServer(ServerConfig{ID: types.Writer(), Quorum: cfg}, wNode); err == nil {
		t.Error("writer identity accepted as server")
	}
}

func TestServerStateAdoptsGossipMaximum(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	d := newDeployment(t, cfg)
	w := d.writer()
	r := d.reader(1)

	// Write reaches a majority; server 4 may or may not have it. After a
	// read (which gossips), eventually servers that participated hold ts=1.
	if err := w.Write(d.ctx(), types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(d.ctx()); err != nil {
		t.Fatal(err)
	}
	count := 0
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		count = 0
		for _, s := range d.servers {
			if s.State().TS >= 1 {
				count++
			}
		}
		if count >= cfg.Majority() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if count < cfg.Majority() {
		t.Errorf("only %d servers adopted ts=1 after gossip, want ≥ %d", count, cfg.Majority())
	}
}

// TestPendingReadsGarbageCollected verifies that the per-read gossip
// bookkeeping does not leak: once every gossip for a read has been
// delivered, no server retains a pending entry for it — including the
// servers whose reply raced ahead of the late gossip, which must not
// re-create the entry.
func TestPendingReadsGarbageCollected(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 1}
	d := newDeployment(t, cfg)
	ctx := d.ctx()
	w := d.writer()
	r := d.reader(1)

	if err := w.Write(ctx, types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	const reads = 20
	for i := 0; i < reads; i++ {
		if _, err := r.Read(ctx); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}

	// All gossip is in flight or delivered; wait for the inboxes to drain,
	// then every server's pending map for the default register must be empty.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked := 0
		for _, srv := range d.servers {
			srv.Peek("", func(st *registerState) { leaked += len(st.pending) })
		}
		if leaked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pending read entries leaked across servers after %d reads", leaked, reads)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOlderInFlightReadSurvivesNewerReply pins the pipelined-reader
// interleaving the old serial watermark got wrong: a server holds gossip
// bookkeeping for read rc=1 that has not reached a majority there yet, then
// replies to the reader's rc=2. With a pipelining reader both reads can be
// live at once, so rc=1's bookkeeping must SURVIVE the newer reply — its
// late gossip then completes it — while gossip arriving after its completion
// must not resurrect it.
func TestOlderInFlightReadSurvivesNewerReply(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 1}
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	node, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{ID: types.Server(1), Quorum: cfg}, node)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the handlers directly (no Start): sends to processes that never
	// joined are silently dropped, which is all this test needs.

	gossip := func(rc int64) *wire.Message {
		return &wire.Message{Op: wire.OpGossip, TS: 0, RCounter: rc, Phase: 1}
	}
	// Read rc=1: request arrives plus one peer gossip — 2 of the needed 3,
	// so the server cannot reply yet and the entry lingers.
	srv.handleRead(types.Reader(1), &wire.Message{Op: wire.OpRead, RCounter: 1}, node)
	srv.handleGossip(types.Server(2), gossip(1), node)
	// Read rc=2 completes here: request plus two peer gossips reach the
	// majority of 3 and the server replies. The reply frontier records rc=2
	// above the watermark; rc=1 is still open.
	srv.handleRead(types.Reader(1), &wire.Message{Op: wire.OpRead, RCounter: 2}, node)
	srv.handleGossip(types.Server(2), gossip(2), node)
	srv.handleGossip(types.Server(3), gossip(2), node)

	pending := -1
	srv.Peek("", func(st *registerState) {
		pending = len(st.pending)
		if st.done(readKey{Reader: 1, RCounter: 1}) {
			t.Error("live rc=1 classified as done after rc=2 replied")
		}
	})
	if pending != 1 {
		t.Fatalf("in-flight rc=1 bookkeeping not retained: %d pending entries", pending)
	}
	// Its late gossip completes rc=1: majority reached, reply sent, entry
	// gone, frontier contiguous through rc=2.
	srv.handleGossip(types.Server(4), gossip(1), node)
	srv.Peek("", func(st *registerState) {
		pending = len(st.pending)
		p := st.replied[1]
		if p == nil || p.watermark != 2 || len(p.above) != 0 {
			t.Errorf("frontier did not fold contiguously: %+v", p)
		}
	})
	if pending != 0 {
		t.Fatalf("completed rc=1 bookkeeping leaked: %d entries", pending)
	}
	// Gossip arriving after completion must not resurrect either read.
	srv.handleGossip(types.Server(5), gossip(1), node)
	srv.handleGossip(types.Server(5), gossip(2), node)
	srv.Peek("", func(st *registerState) { pending = len(st.pending) })
	if pending != 0 {
		t.Fatalf("late gossip resurrected a finished read: %d entries", pending)
	}
}

// TestAbandonedReadForcedPastByReplyLag pins the frontier's memory bound: a
// read whose rCounter is never answered (the reader cancelled it) must not
// pin the watermark — and with it the answered-set and its gossip
// bookkeeping — forever. Once the gap falls maxReplyLag behind, it is
// presumed abandoned, the watermark forced past it, and its bookkeeping
// swept.
func TestAbandonedReadForcedPastByReplyLag(t *testing.T) {
	st := &registerState{
		pending: make(map[readKey]*pendingRead),
		replied: make(map[int]*readerProgress),
	}
	// rc=1 is abandoned: gossip state exists, no reply ever happens.
	st.pending[readKey{Reader: 1, RCounter: 1}] = &pendingRead{gossips: map[types.ProcessID]types.TaggedValue{}}
	// rc=2..maxReplyLag+2 all reply; the watermark cannot pass the rc=1 gap
	// until the lag bound trips.
	for rc := int64(2); rc <= maxReplyLag+2; rc++ {
		st.markReplied(readKey{Reader: 1, RCounter: rc})
	}
	p := st.replied[1]
	if p.watermark < 2 {
		t.Fatalf("watermark %d never forced past the abandoned gap", p.watermark)
	}
	if len(p.above) > maxReplyLag {
		t.Fatalf("answered-set unbounded: %d entries", len(p.above))
	}
	if len(st.pending) != 0 {
		t.Fatalf("abandoned read's bookkeeping not swept: %d entries", len(st.pending))
	}
	// The abandoned read is now (and stays) done: late traffic is dropped.
	if !st.done(readKey{Reader: 1, RCounter: 1}) {
		t.Fatal("abandoned read below the forced watermark not classified done")
	}
}
