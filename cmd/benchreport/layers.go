package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fastread"
	"fastread/internal/core"
	"fastread/internal/durable"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/shard"
	"fastread/internal/sig"
	"fastread/internal/stats"
	"fastread/internal/topology"
	"fastread/internal/transport"
	"fastread/internal/transport/tcpnet"
	"fastread/internal/transport/udpnet"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Workload-independent cells
// ==========================
//
// Each cell times calls into one layer's exported functions, with the
// message shapes the workloads put on the wire (a fast read-ack carrying a
// 128 B value and a 2- or 17-member seen set). A cell is a FIXED-count inner
// loop — the counts below are sized to run at least ~50 ms on the reference
// box and are never auto-scaled, so two runs time the same work — repeated
// `reps` times and reported as the quiet quartile of time per iteration.

// cells runs cells and collects their metrics; the first error sticks.
type cells struct {
	out  results
	reps int
	dir  string // scratch space for the durable cells
	err  error
}

// sink defeats dead-code elimination of pure calls.
var sink int

// measure times fn(n) — n iterations of the operation — reps times. The
// metric's unit selects the conversion: ns/us/ms per iteration, or
// iterations per second for "1/s".
func (c *cells) measure(name string, n int, fn func(n int)) {
	if c.err != nil {
		return
	}
	def := lookup(cellLayer, name)
	samples := make([]float64, 0, c.reps)
	for r := 0; r < c.reps; r++ {
		start := time.Now()
		fn(n)
		elapsed := time.Since(start)
		switch def.Unit {
		case "1/s":
			samples = append(samples, float64(n)/elapsed.Seconds())
		case "ns":
			samples = append(samples, float64(elapsed)/float64(n))
		case "us":
			samples = append(samples, float64(elapsed)/1e3/float64(n))
		case "ms":
			samples = append(samples, float64(elapsed)/1e6/float64(n))
		default:
			panic("benchreport: cell " + name + " has no time unit")
		}
	}
	c.out.fromSamples(def, samples)
}

// counted reports how many mallocs (or bytes) one call of fn costs.
func (c *cells) counted(name string, calls int, bytes bool, fn func()) {
	if c.err != nil {
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	delta := m1.Mallocs - m0.Mallocs
	if bytes {
		delta = m1.TotalAlloc - m0.TotalAlloc
	}
	c.out.scalar(lookup(cellLayer, name), float64(delta)/float64(calls))
}

func (c *cells) check(err error) bool {
	if err != nil && c.err == nil {
		c.err = err
	}
	return c.err == nil
}

// runCells runs every cell and adds its metrics to out.
func runCells(out results, reps int, dir string) error {
	c := &cells{out: out, reps: reps, dir: dir}
	c.wire()
	c.predicate()
	c.serverRoundTrip()
	c.signatures()
	c.durable()
	c.inMemTransport()
	c.sockets()
	c.pipeline()
	c.small()
	c.stores()
	return c.err
}

// cellValue is the 128 B value every cell message carries.
var cellValue = bytes.Repeat([]byte{0xA5}, valueSize)

const cellKey = "k0001"

// readAck is the message the workloads move most: a server's answer to a
// fast read.
func readAck(seen int) *wire.Message {
	members := []types.ProcessID{types.Writer()}
	for i := 1; i < seen; i++ {
		members = append(members, types.Reader(i))
	}
	return &wire.Message{Op: wire.OpReadAck, Key: cellKey, TS: 7, Cur: cellValue, Prev: cellValue, Seen: members, RCounter: 1 << 40}
}

// readRequest is a pre-encoded fast read carrying no newer value, so a
// server answers it without adopting anything and it can be sent again and
// again (servers accept a repeated rCounter).
func readRequest(rc int64) []byte {
	return wire.MustEncode(&wire.Message{Op: wire.OpRead, Key: cellKey, RCounter: rc})
}

func (c *cells) wire() {
	ack := readAck(2)
	payload := wire.MustEncode(ack)
	scratch := wire.GetMessage()
	defer wire.PutMessage(scratch)
	c.measure("wire.encode_ns", 400_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(wire.MustEncode(ack))
		}
	})
	c.measure("wire.decode_ns", 400_000, func(n int) {
		for i := 0; i < n; i++ {
			if err := wire.DecodeInto(scratch, payload); err != nil {
				panic(err)
			}
		}
	})
	c.counted("wire.codec_allocs", 10_000, false, func() {
		_ = wire.DecodeInto(scratch, wire.MustEncode(ack))
	})
	const perBatch = 16
	b := wire.NewBatch(0)
	c.measure("wire.batch_append_ns", 800_000, func(n int) {
		for i := 0; i < n/perBatch; i++ {
			b.Reset()
			for j := 0; j < perBatch; j++ {
				_ = b.AppendMessage(ack)
			}
			sink += len(b.Bytes())
		}
	})
	envelope := bytes.Clone(b.Bytes())
	c.measure("wire.batch_foreach_ns", 8_000_000, func(n int) {
		for i := 0; i < n/perBatch; i++ {
			_ = wire.ForEachInBatch(envelope, func(p []byte) error {
				sink += len(p)
				return nil
			})
		}
	})
}

func (c *cells) predicate() {
	// Every server answers with the full seen set, as servers do within R
	// reads of a write: the predicate's common (and most expensive) input.
	input := func(servers, readers int) (quorum.Config, []core.SeenAck) {
		seen := types.NewProcessSet(types.Writer())
		for i := 1; i <= readers; i++ {
			seen.Add(types.Reader(i))
		}
		acks := make([]core.SeenAck, servers-1)
		for i := range acks {
			acks[i] = core.SeenAck{Server: types.Server(i + 1), Seen: seen}
		}
		return quorum.Config{Servers: servers, Faulty: 1, Readers: readers}, acks
	}
	eval := func(cfg quorum.Config, acks []core.SeenAck) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				res, err := core.EvaluatePredicate(cfg, acks)
				if err != nil || !res.Holds {
					panic(fmt.Sprintf("predicate cell: holds=%v err=%v", res.Holds, err))
				}
			}
		}
	}
	cfg, acks := input(4, 1)
	c.measure("core.predicate_r1_ns", 100_000, eval(cfg, acks))
	cfg, acks = input(11, 8)
	c.measure("core.predicate_r8_us", 4_000, eval(cfg, acks))
	cfg, acks = input(19, 16)
	c.measure("core.predicate_r16_us", 24, eval(cfg, acks))
	c.counted("core.predicate_r16_alloc_bytes", 4, true, func() { eval(cfg, acks)(1) })
}

// serverRoundTrip times a bare core.Server on an in-memory node answering a
// pre-encoded read: mailbox, executor hand-off, handler, acknowledgement.
func (c *cells) serverRoundTrip() {
	net := transport.NewInMemNetwork(transport.WithBatching())
	defer net.Close()
	srvNode, err1 := net.Join(types.Server(1))
	client, err2 := net.Join(types.Reader(1))
	if !c.check(errors.Join(err1, err2)) {
		return
	}
	srv, err := core.NewServer(core.ServerConfig{ID: types.Server(1), Readers: 1}, srvNode)
	if !c.check(err) {
		return
	}
	srv.Start()
	defer srv.Stop()
	req := readRequest(5)
	c.measure("core.server_roundtrip_us", 8_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = client.Send(types.Server(1), "read", req)
			m := <-client.Inbox()
			m.ReleaseArena()
		}
	})
}

func (c *cells) signatures() {
	kp := sig.MustKeyPair()
	signature, err := kp.Signer.SignKeyed(cellKey, 7, cellValue, cellValue)
	if !c.check(err) {
		return
	}
	c.measure("sig.sign_us", 2_000, func(n int) {
		for i := 0; i < n; i++ {
			s, _ := kp.Signer.SignKeyed(cellKey, 7, cellValue, cellValue)
			sink += len(s)
		}
	})
	c.measure("sig.verify_us", 1_000, func(n int) {
		for i := 0; i < n; i++ {
			if err := kp.Verifier.VerifyKeyed(cellKey, 7, cellValue, cellValue, signature); err != nil {
				panic(err)
			}
		}
	})
	cache := sig.NewCache(kp.Verifier, 0)
	c.measure("sig.cache_hit_ns", 100_000, func(n int) {
		for i := 0; i < n; i++ {
			if err := cache.VerifyKeyed(cellKey, 7, cellValue, cellValue, signature); err != nil {
				panic(err)
			}
		}
	})
}

func (c *cells) durable() {
	open := func(sub string, policy durable.Policy, hooks durable.Hooks) *durable.Log {
		if c.err != nil {
			return nil
		}
		l, err := durable.Open(durable.Options{Dir: filepath.Join(c.dir, sub), Fsync: policy, SnapshotEvery: -1}, hooks)
		c.check(err)
		return l
	}
	// The delta a fast server logs for one read or write.
	rec := durable.Record{Kind: durable.KindDelta, Key: cellKey, TS: 7, Cur: cellValue, Prev: cellValue, From: types.Reader(1), RCounter: 9}
	appendN := func(l *durable.Log, thenSync bool) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := l.Append(&rec); err != nil {
					panic(err)
				}
				if thenSync {
					if err := l.Sync(); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	if l := open("never", durable.FsyncNever, durable.Hooks{}); l != nil {
		c.measure("durable.append_never_ns", 20_000, appendN(l, false))
		// Sync forces the file down whatever the policy: one append, one
		// fsync — the unit of work group commit would share.
		c.measure("durable.sync_us", 300, appendN(l, true))
		c.check(l.Close())
	}
	if l := open("always", durable.FsyncAlways, durable.Hooks{}); l != nil {
		c.measure("durable.append_always_us", 300, appendN(l, false))
		c.check(l.Close())
	}
	// Recovery: Open over a log of 100k records (no snapshot to shortcut it).
	const records = 100_000
	if l := open("recover", durable.FsyncNever, durable.Hooks{}); l != nil {
		appendN(l, false)(records)
		c.check(l.Close())
	}
	c.measure("durable.recover_ms", 1, func(int) {
		replayed := 0
		l := open("recover", durable.FsyncNever, durable.Hooks{Apply: func(*durable.Record) error { replayed++; return nil }})
		if l == nil {
			return
		}
		if replayed != records {
			c.check(fmt.Errorf("durable.recover_ms: replayed %d records, want %d", replayed, records))
		}
		c.check(l.Close())
	})
	for _, sub := range []string{"never", "always", "recover"} {
		os.RemoveAll(filepath.Join(c.dir, sub))
	}
}

// floodWindow is how many one-way messages the flood cells keep in flight
// between acknowledgements: deep enough to batch, shallow enough that no
// transport's bounded queue overflows.
const floodWindow = 64

// link is a pair of attached nodes with an echo loop on the far side: it
// answers every marker message and swallows everything else.
type link struct {
	near, far     transport.Node
	marker, flood []byte
	timer         *time.Timer
}

func newLink(near, far transport.Node) *link {
	l := &link{near: near, far: far, marker: readRequest(2), flood: readRequest(1), timer: time.NewTimer(time.Hour)}
	go func() {
		for m := range far.Inbox() {
			transport.Expand(m, func(sub transport.Message) {
				if bytes.Equal(sub.Payload, l.marker) {
					_ = far.Send(sub.From, "read", l.marker)
				}
			})
			m.ReleaseArena()
		}
	}()
	return l
}

// awaitEcho waits for the marker's echo; a lossy transport (UDP) gets the
// marker again after a timeout instead of hanging the cell.
func (l *link) awaitEcho(in <-chan transport.Message) {
	for {
		l.timer.Reset(200 * time.Millisecond)
		select {
		case m := <-in:
			m.ReleaseArena()
			return
		case <-l.timer.C:
			_ = l.near.Send(l.far.ID(), "read", l.marker)
		}
	}
}

// rtt is n request/echo round trips, seen through `in` (the near node's
// inbox, or a demux route of it).
func (l *link) rtt(in <-chan transport.Message) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			_ = l.near.Send(l.far.ID(), "read", l.marker)
			l.awaitEcho(in)
		}
	}
}

// floodN sends n one-way messages in windows closed by a marker.
func (l *link) floodN(n int) {
	for sent := 0; sent < n; sent += floodWindow {
		for i := 1; i < floodWindow; i++ {
			_ = l.near.Send(l.far.ID(), "read", l.flood)
		}
		_ = l.near.Send(l.far.ID(), "read", l.marker)
		l.awaitEcho(l.near.Inbox())
	}
}

func (c *cells) inMemTransport() {
	join := func(net *transport.InMemNetwork) (near, far transport.Node) {
		near, err1 := net.Join(types.Reader(1))
		far, err2 := net.Join(types.Server(1))
		c.check(errors.Join(err1, err2))
		return near, far
	}
	// Plain node to plain node.
	net := transport.NewInMemNetwork(transport.WithBatching())
	defer net.Close()
	near, far := join(net)
	if c.err != nil {
		return
	}
	l := newLink(near, far)
	c.measure("transport.inmem_rtt_us", 8_000, l.rtt(near.Inbox()))
	c.measure("transport.inmem_flood_msgs_per_s", 64_000, l.floodN)

	// The far side behind a key-sharded executor (what every server is).
	execNet := transport.NewInMemNetwork(transport.WithBatching())
	defer execNet.Close()
	near, far = join(execNet)
	if c.err != nil {
		return
	}
	exec := transport.NewExecutor(far, protoutil.WireKeyFunc, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		exec.RunCoalescing(func(m transport.Message, out transport.Sender) {
			_ = out.Send(m.From, m.Kind, m.Payload)
		})
	}()
	marker := readRequest(2)
	c.measure("transport.executor_rtt_us", 8_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = near.Send(types.Server(1), "read", marker)
			m := <-near.Inbox()
			m.ReleaseArena()
		}
	})
	_ = far.Close()
	<-done

	// The near side behind a demux route (what every client handle is).
	demuxNet := transport.NewInMemNetwork(transport.WithBatching())
	defer demuxNet.Close()
	near, far = join(demuxNet)
	if c.err != nil {
		return
	}
	demux := transport.NewDemux(near, protoutil.WireKeyFunc, 0)
	route := demux.Route(cellKey)
	l = newLink(route, far)
	c.measure("transport.demux_rtt_us", 8_000, l.rtt(route.Inbox()))
	_ = near.Close()
	_ = demux.Close()
}

func (c *cells) sockets() {
	ids := []types.ProcessID{types.Reader(1), types.Server(1)}
	if tcp, _, err := tcpnet.LocalCluster(ids); c.check(err) {
		l := newLink(tcp[ids[0]], tcp[ids[1]])
		c.measure("tcpnet.rtt_us", 1_500, l.rtt(l.near.Inbox()))
		c.measure("tcpnet.flood_msgs_per_s", 64_000, l.floodN)
		_ = tcp[ids[0]].Close()
		_ = tcp[ids[1]].Close()
	}
	if udp, _, err := udpnet.LocalCluster(ids); c.check(err) {
		l := newLink(udp[ids[0]], udp[ids[1]])
		c.measure("udpnet.rtt_us", 1_500, l.rtt(l.near.Inbox()))
		c.measure("udpnet.flood_msgs_per_s", 64_000, l.floodN)
		_ = udp[ids[0]].Close()
		_ = udp[ids[1]].Close()
	}
}

// echoNode is a fake transport.Node whose "servers" acknowledge instantly:
// Send queues a pre-encoded acknowledgement from the destination.
type echoNode struct {
	ack   []byte
	inbox chan transport.Message
}

func (e *echoNode) ID() types.ProcessID { return types.Reader(1) }
func (e *echoNode) Send(to types.ProcessID, _ string, _ []byte) error {
	e.inbox <- transport.Message{From: to, To: e.ID(), Kind: "read-ack", Payload: e.ack}
	return nil
}
func (e *echoNode) Inbox() <-chan transport.Message { return e.inbox }
func (e *echoNode) Close() error                    { close(e.inbox); return nil }

// pipeline times the client engine alone: Acquire -> Register -> three
// acknowledgements -> completion, over a node that echoes.
func (c *cells) pipeline() {
	// Buffered to one operation's quorum so Send never blocks on the
	// dispatcher.
	node := &echoNode{ack: wire.MustEncode(readAck(2)), inbox: make(chan transport.Message, 3)}
	pl := protoutil.NewPipeline(node, 1, nil)
	defer node.Close()
	ctx := context.Background()
	done := make(chan error, 1)
	complete := func(_ []protoutil.Ack, err error) { done <- err }
	c.measure("protoutil.pipeline_op_us", 20_000, func(n int) {
		for i := 0; i < n; i++ {
			if err := pl.Acquire(ctx); err != nil {
				panic(err)
			}
			pl.Register(3, nil, complete)
			for s := 1; s <= 3; s++ {
				_ = node.Send(types.Server(s), "read", nil)
			}
			if err := <-done; err != nil {
				panic(err)
			}
		}
	})
}

func (c *cells) small() {
	m := shard.NewMap(0, func(string) *int { return new(int) })
	c.measure("shard.do_ns", 2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			m.Do(cellKey, func(v *int) { *v++ })
		}
	})
	h := stats.NewHistogram()
	c.measure("stats.hist_record_ns", 5_000_000, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(time.Duration(20_000 + i&0xFFFF))
		}
	})
	ring, err := topology.NewRing([]string{"g0", "g1", "g2", "g3"}, 0)
	if !c.check(err) {
		return
	}
	c.measure("topology.lookup_ns", 2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += ring.Lookup(cellKey)
		}
	})
}

// stores times serial operations of the protocols no workload runs: the
// Byzantine fast register (signatures on the path) and the three baselines
// the paper compares against.
func (c *cells) stores() {
	ctx := context.Background()
	serial := func(cfg fastread.Config, read string, reads int, write string, writes int) {
		if c.err != nil {
			return
		}
		store, err := fastread.NewStore(cfg)
		if !c.check(err) {
			return
		}
		defer store.Close()
		reg, err := store.Register(cellKey)
		if !c.check(err) {
			return
		}
		reader, err := reg.Reader(1)
		if !c.check(err) || !c.check(reg.Writer().Write(ctx, cellValue)) {
			return
		}
		c.measure(read, reads, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := reader.Read(ctx); err != nil {
					c.check(err)
					return
				}
			}
		})
		if write == "" {
			return
		}
		c.measure(write, writes, func(n int) {
			for i := 0; i < n; i++ {
				if err := reg.Writer().Write(ctx, cellValue); err != nil {
					c.check(err)
					return
				}
			}
		})
	}
	serial(fastread.Config{Servers: 6, Faulty: 1, Malicious: 1, Readers: 1, Protocol: fastread.ProtocolFastByzantine},
		"byz.serial_read_us", 2_000, "byz.serial_write_us", 400)
	base := fastread.Config{Servers: 4, Faulty: 1, Readers: 1}
	for _, b := range []struct {
		p    fastread.Protocol
		name string
	}{
		{fastread.ProtocolABD, "abd.serial_read_us"},
		{fastread.ProtocolMaxMin, "maxmin.serial_read_us"},
		{fastread.ProtocolRegular, "regular.serial_read_us"},
	} {
		cfg := base
		cfg.Protocol = b.p
		serial(cfg, b.name, 2_000, "", 0)
	}
}
