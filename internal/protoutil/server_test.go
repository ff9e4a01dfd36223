package protoutil_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	_ "fastread/internal/abd"
	_ "fastread/internal/core"
	"fastread/internal/driver"
	"fastread/internal/durable"
	"fastread/internal/fault"
	_ "fastread/internal/maxmin"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	_ "fastread/internal/regular"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Shell conformance: every registered protocol server, built through its
// driver, must show the same lifecycle, shed accounting and durable recovery,
// because all of them are the one protoutil.Shell underneath.

var writerKeys = sig.MustKeyPair()

// shapes lists the registered drivers with a deployment shape each accepts.
// maxmin runs with S=1 so the lone server under test is its own gossip
// majority and answers reads without peers.
var shapes = []struct {
	driver string
	quorum quorum.Config
}{
	{"fast", quorum.Config{Servers: 8, Faulty: 1, Readers: 2}},
	{"fast-byz", quorum.Config{Servers: 12, Faulty: 1, Malicious: 1, Readers: 2}},
	{"abd", quorum.Config{Servers: 4, Faulty: 1, Readers: 2}},
	{"maxmin", quorum.Config{Servers: 1, Readers: 2}},
	{"regular", quorum.Config{Servers: 4, Faulty: 1, Readers: 2}},
}

// builder constructs the server under test on a node.
type builder func(cfg driver.ServerConfig, node transport.Node) (driver.Server, error)

func driverBuilder(t *testing.T, name string) builder {
	drv, ok := driver.Lookup(name)
	if !ok {
		t.Fatalf("driver %q is not registered", name)
	}
	return func(cfg driver.ServerConfig, node transport.Node) (driver.Server, error) {
		cfg.Verifier = writerKeys.Verifier
		return drv.NewServer(cfg, node)
	}
}

func byzantineBuilder(cfg driver.ServerConfig, node transport.Node) (driver.Server, error) {
	s, err := fault.NewByzantineServer(fault.ByzantineConfig{ID: cfg.ID, Workers: cfg.Workers, Behavior: fault.BehaviorStaleReplay, Readers: cfg.Quorum.Readers}, node)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// within fails the test unless fn returns within five seconds: at the parent
// commit Stop before Start blocks forever on the never-closed done channel.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func join(t *testing.T, net *transport.InMemNetwork, id types.ProcessID) transport.Node {
	t.Helper()
	node, err := net.Join(id)
	if err != nil {
		t.Fatalf("join %v: %v", id, err)
	}
	return node
}

func lifecycleRows(t *testing.T, build builder, q quorum.Config) {
	cfg := driver.ServerConfig{ID: types.Server(1), Quorum: q}
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })

	t.Run("rejects an invalid identity and a nil node", func(t *testing.T) {
		bad := cfg
		bad.ID = types.Writer()
		if _, err := build(bad, join(t, net, types.Writer())); err == nil {
			t.Error("a writer identity was accepted as a server")
		}
		if _, err := build(cfg, nil); err == nil {
			t.Error("a nil node was accepted")
		}
	})
	t.Run("stop without start returns", func(t *testing.T) {
		srv, err := build(cfg, join(t, net, types.Server(1)))
		if err != nil {
			t.Fatal(err)
		}
		within(t, "Stop on a never-started server", srv.Stop)
		within(t, "Start after Stop", srv.Start)
	})
	t.Run("double stop returns", func(t *testing.T) {
		srv, err := build(cfg, join(t, net, types.Server(2)))
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		within(t, "first Stop", srv.Stop)
		within(t, "second Stop", srv.Stop)
	})
}

// gatedNode blocks the server's sends until the gate opens, announcing the
// first blocked send: a worker stalled inside its end-of-run flush stops
// draining its queue, which is the deterministic way to fill it.
type gatedNode struct {
	transport.Node
	blocked chan struct{} // receives once, when the first Send arrives
	gate    chan struct{}
}

func (g *gatedNode) Send(to types.ProcessID, kind string, payload []byte) error {
	select {
	case g.blocked <- struct{}{}:
	default:
	}
	<-g.gate
	return g.Node.Send(to, kind, payload)
}

func shedRow(t *testing.T, build builder, q quorum.Config) {
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	node := &gatedNode{Node: join(t, net, types.Server(1)), blocked: make(chan struct{}, 1), gate: make(chan struct{})}
	srv, err := build(driver.ServerConfig{ID: types.Server(1), Quorum: q, Workers: 2, QueueBound: 8}, node)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	reader := join(t, net, types.Reader(1))
	read := func(rc int64) {
		req := &wire.Message{Op: wire.OpRead, Key: "hot", RCounter: rc}
		if err := reader.Send(types.Server(1), req.Kind(), wire.MustEncode(req)); err != nil {
			t.Fatal(err)
		}
	}
	// One key, so one worker. Once its reply to the first read is stuck on
	// the gate, every later read piles into that worker's 256-slot ring, then
	// its 8-slot overflow, and the rest must be shed.
	read(1)
	within(t, "the first reply", func() { <-node.blocked })
	for rc := int64(2); rc <= 1024; rc++ {
		read(rc)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.QueueSheds() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("driver.Server.QueueSheds stayed 0 with a worker stalled behind an 8-message bound and 1023 requests offered")
		}
		time.Sleep(time.Millisecond)
	}
	close(node.gate)
	within(t, "Stop", srv.Stop)
}

// client is one client process talking to the server under test over the
// wire, one request at a time.
type client struct {
	t    *testing.T
	node transport.Node
}

// ask sends req to s1 and returns the next acknowledgement.
func (c client) ask(req *wire.Message) *wire.Message {
	c.t.Helper()
	if err := c.node.Send(types.Server(1), req.Kind(), wire.MustEncode(req)); err != nil {
		c.t.Fatal(err)
	}
	select {
	case m := <-c.node.Inbox():
		var ack *wire.Message
		transport.Expand(m, func(sub transport.Message) {
			if ack == nil {
				ack, _ = wire.Decode(sub.Payload)
			}
		})
		if ack == nil {
			c.t.Fatalf("undecodable reply to %s rc=%d", req.Op, req.RCounter)
		}
		return ack
	case <-time.After(5 * time.Second):
		c.t.Fatalf("no reply to %s key=%q ts=%d rc=%d", req.Op, req.Key, req.TS, req.RCounter)
		return nil
	}
}

// deployment is one incarnation of the server under test plus its clients.
type deployment struct {
	srv    driver.Server
	writer client
	reader [2]client
}

func deploy(t *testing.T, build builder, q quorum.Config, opts durable.Options) *deployment {
	t.Helper()
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	srv, err := build(driver.ServerConfig{ID: types.Server(1), Quorum: q, Durable: &opts}, join(t, net, types.Server(1)))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	d := &deployment{srv: srv, writer: client{t, join(t, net, types.Writer())}}
	for i := range d.reader {
		d.reader[i] = client{t, join(t, net, types.Reader(i+1))}
	}
	return d
}

const (
	recoveryKeys = 4
	// probeRC is the operation counter of the final read of every key; the
	// traffic before it stays below.
	probeRC = 1000
)

func keyName(k int) string { return fmt.Sprintf("key-%d", k) }

// traffic writes `rounds` values to every key, each followed by a read from
// both readers, so every kind of state a protocol keeps (value, previous
// value, signature, seen set, per-client counters) has moved several times.
func (d *deployment) traffic(rounds int) {
	prev := make([]types.Value, recoveryKeys)
	rc := int64(0)
	for ts := types.Timestamp(1); int(ts) <= rounds; ts++ {
		for k := 0; k < recoveryKeys; k++ {
			key := keyName(k)
			cur := types.Value(fmt.Sprintf("%s@%d", key, ts))
			d.writer.ask(&wire.Message{Op: wire.OpWrite, Key: key, TS: ts, Cur: cur, Prev: prev[k],
				WriterSig: writerKeys.Signer.MustSignKeyed(key, ts, cur, prev[k])})
			prev[k] = cur
			for _, r := range d.reader {
				rc++
				r.ask(&wire.Message{Op: wire.OpRead, Key: key, RCounter: rc})
			}
		}
	}
	if rc >= probeRC {
		d.writer.t.Fatalf("traffic used %d read counters, the probe counter %d must stay above", rc, probeRC)
	}
}

// view is everything an acknowledgement says about a register's state.
type view struct {
	TS        types.Timestamp
	Rank      int32
	Cur, Prev string
	Sig       string
	Seen      string
}

func viewOf(ack *wire.Message) view {
	seen := make([]string, len(ack.Seen))
	for i, p := range ack.Seen {
		seen[i] = p.String()
	}
	sort.Strings(seen)
	return view{ack.TS, ack.WriterRank, string(ack.Cur), string(ack.Prev), string(ack.WriterSig), fmt.Sprint(seen)}
}

// probe reads every key once from reader 1 at probeRC and returns what the
// server acknowledged.
func (d *deployment) probe() [recoveryKeys]view {
	var out [recoveryKeys]view
	for k := range out {
		ack := d.reader[0].ask(&wire.Message{Op: wire.OpRead, Key: keyName(k), RCounter: probeRC})
		if ack.RCounter != probeRC {
			d.reader[0].t.Fatalf("probe of %s answered rc=%d", keyName(k), ack.RCounter)
		}
		out[k] = viewOf(ack)
	}
	return out
}

// recoveryRow runs traffic against a durable server, stops it (a crash or a
// graceful stop, per opts), reopens a fresh incarnation from the same
// directory and requires every key's acknowledgement to be the one the
// previous incarnation gave.
func recoveryRow(t *testing.T, build builder, q quorum.Config, fast bool, rounds int, opts durable.Options) {
	opts.Dir = t.TempDir()
	var before, after durable.Counters

	opts.Counters = &before
	d := deploy(t, build, q, opts)
	d.traffic(rounds)
	want := d.probe()
	within(t, "Stop", d.srv.Stop)
	if want[0].TS != types.Timestamp(rounds) || want[0].Cur != fmt.Sprintf("key-0@%d", rounds) {
		t.Fatalf("pre-stop probe of key-0 = %+v, want the last write (ts=%d)", want[0], rounds)
	}
	if !opts.SimulateCrash && before.Snapshots.Load() == 0 {
		t.Fatal("the graceful incarnation never snapshotted")
	}

	opts.Counters = &after
	d = deploy(t, build, q, opts)
	defer d.srv.Stop()
	if after.RecordsRecovered.Load() == 0 {
		t.Fatal("the second incarnation recovered no records")
	}
	if got := d.probe(); got != want {
		t.Fatalf("acknowledgements after recovery differ:\n got  %+v\n want %+v", got, want)
	}
	if !fast {
		return
	}
	// The fast servers persist each client's operation counter (Figure 2
	// line 26): a counter below the recovered one is stale and gets no reply,
	// so the first reply seen is the one to the fresh counter behind it.
	r := d.reader[0]
	stale := &wire.Message{Op: wire.OpRead, Key: keyName(0), RCounter: probeRC - 1}
	if err := r.node.Send(types.Server(1), stale.Kind(), wire.MustEncode(stale)); err != nil {
		t.Fatal(err)
	}
	if ack := r.ask(&wire.Message{Op: wire.OpRead, Key: keyName(0), RCounter: probeRC + 1}); ack.RCounter != probeRC+1 {
		t.Fatalf("recovered server answered the stale rCounter %d", ack.RCounter)
	}
}

func TestShellConformance(t *testing.T) {
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.driver, func(t *testing.T) {
			build := driverBuilder(t, sh.driver)
			fast := sh.driver == "fast" || sh.driver == "fast-byz"
			lifecycleRows(t, build, sh.quorum)
			t.Run("queue bound sheds are counted", func(t *testing.T) { shedRow(t, build, sh.quorum) })
			t.Run("crash recovery", func(t *testing.T) {
				recoveryRow(t, build, sh.quorum, fast, 3, durable.Options{Fsync: durable.FsyncAlways, SimulateCrash: true, SnapshotEvery: -1})
			})
			t.Run("snapshot and tail recovery", func(t *testing.T) {
				recoveryRow(t, build, sh.quorum, fast, 12, durable.Options{Fsync: durable.FsyncNever, SnapshotEvery: 5, SegmentBytes: 1 << 10})
			})
		})
	}
	t.Run("byzantine stand-in", func(t *testing.T) {
		lifecycleRows(t, byzantineBuilder, quorum.Config{Servers: 6, Faulty: 1, Malicious: 1, Readers: 1})
	})
}

// TestShellReplayAppliesEachDeltaOnce pins the shell's LSN guard with a
// protocol whose mutation is NOT idempotent (a counter), which the register
// protocols' adopt-if-newer replay would mask: snapshots run while appends
// continue, so after a crash the surviving tail holds deltas the restored
// snapshot already reflects, and replaying one twice would overcount.
func TestShellReplayAppliesEachDeltaOnce(t *testing.T) {
	const keys, perKey = 32, 64
	proto := protoutil.Protocol[int64]{
		Name:     "counter",
		NewState: func() int64 { return 0 },
		Handle:   func(transport.Message, transport.Sender) {},
		Apply: func(n *int64, r *durable.Record) {
			if r.Kind == durable.KindState {
				*n = r.TS
			} else {
				*n++
			}
		},
		Dump: func(n *int64, r *durable.Record) { r.TS = *n },
	}
	dir := t.TempDir()
	open := func(counters *durable.Counters) *protoutil.Shell[int64] {
		net := transport.NewInMemNetwork()
		t.Cleanup(func() { _ = net.Close() })
		sh, err := protoutil.NewShell(protoutil.ShellConfig{ID: types.Server(1), Durable: &durable.Options{
			Dir: dir, Fsync: durable.FsyncAlways, SimulateCrash: true, SnapshotEvery: 16, SegmentBytes: 1 << 10, Counters: counters,
		}}, join(t, net, types.Server(1)), proto)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}

	var first, second durable.Counters
	sh := open(&first)
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			key := keyName(k)
			sh.Do(key, func(sl *protoutil.Slot[int64]) {
				sl.State++
				sh.Log(sl, &durable.Record{Kind: durable.KindDelta, Key: key})
			})
		}
	}
	sh.Stop()
	if first.Snapshots.Load() == 0 {
		t.Fatal("no snapshot ran while appending")
	}

	sh = open(&second)
	defer sh.Stop()
	if second.RecordsRecovered.Load() == 0 {
		t.Fatal("recovered no records")
	}
	for k := 0; k < keys; k++ {
		var n int64
		if !sh.Peek(keyName(k), func(st *int64) { n = *st }) || n != perKey {
			t.Errorf("%s recovered count %d, want %d", keyName(k), n, perKey)
		}
	}
}
