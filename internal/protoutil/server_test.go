package protoutil_test

import (
	"fmt"
	"sync/atomic"
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
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Shell conformance: every registered protocol server, built through its
// driver, must show the same lifecycle, mutation counting and durable
// recovery, because all of them are the one protoutil.Shell underneath.

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
	s, err := fault.NewByzantineServer(fault.ByzantineConfig{ID: cfg.ID, Behavior: fault.BehaviorStaleReplay}, node)
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

// hookNode runs before ahead of every send the server makes, on the server's
// goroutine.
type hookNode struct {
	transport.Node
	before func(payload []byte)
}

func (n *hookNode) Send(to types.ProcessID, kind string, payload []byte) error {
	n.before(payload)
	return n.Node.Send(to, kind, payload)
}

// client is one client process talking to the server under test over the
// wire, one request at a time.
type client struct {
	t    *testing.T
	node transport.Node
}

// send sends req to s1.
func (c client) send(req *wire.Message) {
	c.t.Helper()
	if err := c.node.Send(types.Server(1), req.Kind(), wire.MustEncode(req)); err != nil {
		c.t.Fatal(err)
	}
}

// ask sends req to s1 and returns the next acknowledgement.
func (c client) ask(req *wire.Message) *wire.Message {
	c.t.Helper()
	c.send(req)
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
	return view{ack.TS, ack.WriterRank, string(ack.Cur), string(ack.Prev), string(ack.WriterSig), ack.SeenMask.String()}
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
	r.send(&wire.Message{Op: wire.OpRead, Key: keyName(0), RCounter: probeRC - 1})
	if ack := r.ask(&wire.Message{Op: wire.OpRead, Key: keyName(0), RCounter: probeRC + 1}); ack.RCounter != probeRC+1 {
		t.Fatalf("recovered server answered the stale rCounter %d", ack.RCounter)
	}
}

// mutationRow: the shell counts a mutation where the protocol logs it, with or
// without a durable log, so TotalMutations moves for every driver — at the
// parent only core and abd counted, and the others reported a constant 0.
func mutationRow(t *testing.T, build builder, q quorum.Config) {
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	srv, err := build(driver.ServerConfig{ID: types.Server(1), Quorum: q}, join(t, net, types.Server(1)))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	if n := srv.TotalMutations(); n != 0 {
		t.Fatalf("a fresh server reports %d mutations", n)
	}
	w := client{t, join(t, net, types.Writer())}
	for ts, key := range []string{"a", "b", "a"} {
		ts, cur := types.Timestamp(ts+1), types.Value("v")
		w.ask(&wire.Message{Op: wire.OpWrite, Key: key, TS: ts, Cur: cur, WriterSig: writerKeys.Signer.MustSignKeyed(key, ts, cur, nil)})
	}
	if n := srv.TotalMutations(); n != 3 {
		t.Fatalf("three adopted writes over two keys: TotalMutations = %d, want 3", n)
	}
}

func TestShellConformance(t *testing.T) {
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.driver, func(t *testing.T) {
			build := driverBuilder(t, sh.driver)
			fast := sh.driver == "fast" || sh.driver == "fast-byz"
			lifecycleRows(t, build, sh.quorum)
			t.Run("mutations are counted", func(t *testing.T) { mutationRow(t, build, sh.quorum) })
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

// counterServer is a durable shell over a protocol whose mutation is NOT
// idempotent, which the register protocols' adopt-if-newer replay would mask:
// every request bumps its key's counter, logs the delta and acks with the new
// count in TS and the delta's LSN in RCounter.
type counterServer struct {
	*protoutil.Shell[int64]
	counters durable.Counters
}

func openCounter(t *testing.T, node transport.Node, opts durable.Options) *counterServer {
	t.Helper()
	cs := &counterServer{}
	opts.Counters = &cs.counters
	sh, err := protoutil.NewShell(protoutil.ServerConfig{ID: types.Server(1), Durable: &opts}, node, protoutil.Protocol[int64]{
		Name:     "counter",
		NewState: func() int64 { return 0 },
		Handle: func(m transport.Message, req *wire.Message, out transport.Sender) {
			ack := &wire.Message{Op: wire.OpWriteAck, Key: req.Key}
			cs.Do(req.Key, func(sl *protoutil.Slot[int64]) {
				cs.Apply(sl, &durable.Record{Kind: durable.KindDelta, Key: req.Key}, m.Arena)
				ack.TS, ack.RCounter = types.Timestamp(sl.State), sl.LSN()
			})
			_ = transport.SendEncoded(out, m.From, ack)
		},
		Apply: func(sl *protoutil.Slot[int64], r durable.Record, _ *wire.Arena) bool {
			if r.Kind == durable.KindState {
				sl.State = r.TS
			} else {
				sl.State++
			}
			return true
		},
		Dump: func(n *int64, r *durable.Record) { r.TS = *n },
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.Shell = sh
	return cs
}

func (cs *counterServer) count(key string) int64 {
	var n int64
	cs.Peek(key, func(st *int64) { n = *st })
	return n
}

func TestShellID(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	for _, id := range []types.ProcessID{types.Server(1), types.Server(7)} {
		t.Run(id.String(), func(t *testing.T) {
			sh, err := protoutil.NewShell(protoutil.ServerConfig{ID: id}, join(t, net, id), protoutil.Protocol[int64]{
				Name:     "id",
				NewState: func() int64 { return 0 },
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := sh.ID(); got != id {
				t.Errorf("ID() = %v, want %v", got, id)
			}
		})
	}
}

// TestSlotAdoptPinsOneArena walks one slot through every adoption a server
// makes — a first arena, the same arena again, a second arena, an owned
// value — checking after each step that the slot holds exactly one reference
// on the arena it pins and none on any other. Each arena starts with the one
// reference its delivered message holds.
func TestSlotAdoptPinsOneArena(t *testing.T) {
	a, b := wire.GetArena(64), wire.GetArena(64)
	defer a.Release()
	defer b.Release()
	var sl protoutil.Slot[struct{}]
	for _, step := range []struct {
		name         string
		adopt        *wire.Arena
		want         bool
		refsA, refsB int32
	}{
		{"nil to A", a, true, 2, 1},
		{"A to A", a, true, 2, 1},
		{"A to B", b, true, 1, 2},
		{"B to nil", nil, false, 1, 1},
	} {
		if got := sl.Adopt(step.adopt); got != step.want {
			t.Errorf("%s: Adopt = %v, want %v", step.name, got, step.want)
		}
		if a.Refs() != step.refsA || b.Refs() != step.refsB {
			t.Errorf("%s: refs A=%d B=%d, want A=%d B=%d", step.name, a.Refs(), b.Refs(), step.refsA, step.refsB)
		}
	}
}

// TestShellReplayAppliesEachDeltaOnce pins the shell's LSN guard: snapshots
// run while appends continue, so after a crash the surviving tail holds
// deltas the restored snapshot already reflects, and replaying one twice
// would overcount.
func TestShellReplayAppliesEachDeltaOnce(t *testing.T) {
	const keys, perKey = 32, 64
	opts := durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncAlways, SimulateCrash: true, SnapshotEvery: 16, SegmentBytes: 1 << 10}
	open := func() *counterServer {
		net := transport.NewInMemNetwork()
		t.Cleanup(func() { _ = net.Close() })
		return openCounter(t, join(t, net, types.Server(1)), opts)
	}

	first := open()
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			key := keyName(k)
			first.Do(key, func(sl *protoutil.Slot[int64]) {
				first.Apply(sl, &durable.Record{Kind: durable.KindDelta, Key: key}, nil)
			})
			// No executor is running: end the run by hand, or the crash
			// below drops the staged record.
			if err := first.EndRun(); err != nil {
				t.Fatal(err)
			}
		}
	}
	first.Stop()
	if first.counters.Snapshots.Load() == 0 {
		t.Fatal("no snapshot ran while appending")
	}

	second := open()
	defer second.Stop()
	if second.counters.RecordsRecovered.Load() == 0 {
		t.Fatal("recovered no records")
	}
	for k := 0; k < keys; k++ {
		if n := second.count(keyName(k)); n != perKey {
			t.Errorf("%s recovered count %d, want %d", keyName(k), n, perKey)
		}
	}
}

// bump is a counterServer request for the key.
func bump(key string) *wire.Message { return &wire.Message{Op: wire.OpWrite, Key: key} }

// acks receives from the client node until n acknowledgements have arrived
// (a server run's acks share one envelope) and hands each to fn.
func acks(t *testing.T, node transport.Node, n int, fn func(*wire.Message)) {
	t.Helper()
	for n > 0 {
		select {
		case m := <-node.Inbox():
			transport.Expand(m, func(sub transport.Message) {
				ack, err := wire.Decode(sub.Payload)
				if err != nil {
					t.Fatalf("undecodable ack: %v", err)
				}
				n--
				fn(ack)
			})
		case <-time.After(5 * time.Second):
			t.Fatalf("%d acknowledgements never arrived", n)
		}
	}
}

// TestShellAcksOnlyAfterCommit pins the durability rule of the run-boundary
// group commit: an ack leaves a server only after the commit that covers its
// record returned. The server's node is wrapped so that at the moment every
// ack is SENT — earlier than any client can observe it, and the durable LSN
// only grows — the LSN of the record behind it is at most the log's durable
// LSN. Then the server crash-stops under load and every acked mutation must
// be recovered. Calling co.Flush before the run-end hook in
// transport.Executor.endRun fails every ack of this test; verified by hand
// when the rule was introduced. The one row is the executor's one worker.
func TestShellAcksOnlyAfterCommit(t *testing.T) {
	t.Run("workers=1", acksOnlyAfterCommit)
}

func acksOnlyAfterCommit(t *testing.T) {
	const keys, depth, total = 8, 16, 512
	opts := durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncAlways, SimulateCrash: true, SnapshotEvery: -1}

	var cs *counterServer
	open := func() (*counterServer, client) {
		net := transport.NewInMemNetwork()
		t.Cleanup(func() { _ = net.Close() })
		node := &hookNode{Node: join(t, net, types.Server(1)), before: func(payload []byte) {
			durableLSN := cs.DurableLSN()
			transport.Expand(transport.Message{Payload: payload}, func(sub transport.Message) {
				if ack, err := wire.Decode(sub.Payload); err != nil {
					t.Errorf("server sent an undecodable ack: %v", err)
				} else if ack.RCounter > durableLSN {
					t.Errorf("ack for %s count %d left the server at durable LSN %d, before the commit covering its record (LSN %d)", ack.Key, ack.TS, durableLSN, ack.RCounter)
				}
			})
		}}
		cs = openCounter(t, node, opts)
		cs.Start()
		return cs, client{t, join(t, net, types.Reader(1))}
	}

	// Pipelined load over several keys, so a run is more than one request
	// whenever requests queue behind a commit.
	srv, c := open()
	acked := make(map[string]int64)
	sent := 0
	next := func() {
		c.send(bump(keyName(sent % keys)))
		sent++
	}
	for sent < depth {
		next()
	}
	acks(t, c.node, total, func(ack *wire.Message) {
		if n := int64(ack.TS); n > acked[ack.Key] {
			acked[ack.Key] = n
		}
		if sent < total+depth {
			next()
		}
	})
	// depth requests are still in flight: crash-stop under them.
	within(t, "Stop", srv.Stop)

	srv, c = open()
	defer func() { within(t, "Stop", srv.Stop) }()
	for key, n := range acked {
		if got := srv.count(key); got < n || got > int64(sent/keys) {
			t.Errorf("%s recovered count %d, want the acked %d..%d sent", key, got, n, sent/keys)
		}
	}

	// Group size. k idle-separated requests are k runs: k fsyncs.
	const k = 8
	fsyncs := srv.counters.Fsyncs.Load()
	for i := 0; i < k; i++ {
		c.send(bump(keyName(0)))
		acks(t, c.node, 1, func(*wire.Message) {})
	}
	if got := srv.counters.Fsyncs.Load() - fsyncs; got != k {
		t.Errorf("%d idle-separated requests cost %d fsyncs, want %d", k, got, k)
	}
	// k requests delivered in one envelope are one run: 1 fsync.
	envelope := wire.NewBatch(0)
	for i := 0; i < k; i++ {
		envelope.Append(wire.MustEncode(bump(keyName(0))))
	}
	fsyncs = srv.counters.Fsyncs.Load()
	if err := c.node.Send(types.Server(1), wire.BatchKind, envelope.Bytes()); err != nil {
		t.Fatal(err)
	}
	acks(t, c.node, k, func(*wire.Message) {})
	if got := srv.counters.Fsyncs.Load() - fsyncs; got != 1 {
		t.Errorf("%d requests delivered as one run cost %d fsyncs, want 1", k, got)
	}
}

// TestShellFailStopOnLogError closes the log under a running server — from
// then on every Stage fails as it would on a full or broken disk — and
// requires the server to handle the requests that follow without sending one
// more ack: an acknowledged mutation it did not persist would be a lie, a
// silent server is a crash fault the quorum already tolerates.
func TestShellFailStopOnLogError(t *testing.T) {
	const k = 8
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	var sends atomic.Int64
	node := &hookNode{Node: join(t, net, types.Server(1)), before: func([]byte) { sends.Add(1) }}
	srv := openCounter(t, node, durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncAlways, SnapshotEvery: -1})
	srv.Start()
	c := client{t, join(t, net, types.Writer())}
	if ack := c.ask(bump(keyName(0))); ack.TS != 1 || srv.LogFailed() {
		t.Fatalf("healthy server: ack count %d, LogFailed %v", ack.TS, srv.LogFailed())
	}

	if err := srv.CloseLog(); err != nil {
		t.Fatal(err)
	}
	before := sends.Load()
	for i := 0; i < k; i++ {
		c.send(bump(keyName(i)))
	}
	// Every failed Stage is counted, so the counter says when all k requests
	// have been handled; Stop then ends the last run.
	deadline := time.Now().Add(5 * time.Second)
	for srv.counters.AppendErrors.Load() < k {
		if time.Now().After(deadline) {
			t.Fatalf("append_errors = %d after %d requests on a closed log", srv.counters.AppendErrors.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
	within(t, "Stop", srv.Stop)
	if got := sends.Load() - before; got != 0 {
		t.Errorf("the server sent %d acks for mutations its log refused", got)
	}
	if !srv.LogFailed() {
		t.Error("LogFailed is false after the log refused records")
	}
}
