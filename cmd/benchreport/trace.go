package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastread/internal/atomicity"
	"fastread/internal/core"
	"fastread/internal/durable"
	"fastread/internal/history"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/transport/tcpnet"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// The traced run
// ==============
//
// The timed runs measure with tracing off. This file gives the per-layer
// view of one operation, recorded entirely from the benchmark's own files:
// the workload's deployment is assembled by hand from the layers' exported
// constructors, and every transport.Node in it is wrapped in a decorator
// that timestamps Send and inbox delivery. Joining those timestamps with the
// client loop's own (call entry, submission done, result) yields, for every
// operation and every server, the chain
//
//	client.submit -> net.request -> server.handle -> net.ack -> client.complete
//
// The chain the operation actually waited for is the one through the server
// whose acknowledgement completed the quorum. An identical deployment
// without decorators runs the same rounds, interleaved, and the throughput
// ratio of the two is the tracing overhead. Spans inside the program are a
// later change; this is the resolution reachable from outside.

// opID identifies one operation on the wire: requests and acknowledgements
// both carry it.
type opID struct {
	key    int32
	client int16 // 0: the writer; i: reader i
	n      int64 // writes: the version, which is the writer's timestamp; reads: the reader's rCounter
}

// The four points at which a decorator sees an operation's messages.
const (
	atReqSend = iota // client node: Send of the request to a server
	atReqRecv        // server node: request delivered from the inbox
	atAckSend        // server node: Send of the acknowledgement
	atAckRecv        // client node: acknowledgement delivered from the inbox
	nStages
)

type event struct {
	id     opID
	server int16
	stage  uint8
	at     int64 // ns since the tracer's base
}

// opSpan is the client loop's own record of one operation.
type opSpan struct {
	tr                    *tracer
	id                    opID
	start, submitted, end int64
	value                 []byte // writes: the value written; reads: the value returned
	version               int64  // reads: the version returned
	failed                bool
}

// finish stamps the result's arrival at the caller and keeps what a read
// returned for the history.
func (s *opSpan) finish(out readOut, err error) {
	s.end, s.failed = s.tr.now(), err != nil
	if s.id.client != 0 {
		s.value, s.version = out.value, out.version
	}
}

// readerNonce is the rCounter every hand-built reader starts from, so the
// target can predict the counter of each read it submits.
const readerNonce = 1000

type tracer struct {
	base  time.Time
	keys  map[string]int32
	nodes []*tracedNode

	// slab holds the opSpans of the current harvest period; next indexes it.
	slab []opSpan
	next atomic.Int64
}

func newTracer(sp *spec) *tracer {
	t := &tracer{base: time.Now(), keys: make(map[string]int32, sp.Keys)}
	for k := 0; k < sp.Keys; k++ {
		t.keys[keyName(k)] = int32(k)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens the record of an operation entering the client API.
func (t *tracer) begin(id opID) *opSpan {
	s := &t.slab[t.next.Add(1)-1]
	*s = opSpan{tr: t, id: id, start: t.now()}
	return s
}

// tracedNode decorates a transport.Node: it timestamps every Send and every
// inbox delivery and otherwise passes messages through untouched (arena
// references travel with the forwarded message).
type tracedNode struct {
	inner    transport.Node
	tr       *tracer
	isServer bool
	inbox    chan transport.Message
	closing  chan struct{}
	closeOne sync.Once
	done     chan struct{}

	mu     sync.Mutex // guards everything below: Send may be called concurrently with itself and the forwarder
	events []event
	// Scratch for decoding; the per-message callback reads cur* instead of
	// capturing them, so noting a message allocates nothing.
	scratch  wire.Message
	curPeer  types.ProcessID
	curStage uint8
	curAt    int64
	noteOne  func([]byte) error
}

func (t *tracer) wrap(inner transport.Node) transport.Node {
	nd := &tracedNode{
		inner: inner, tr: t, isServer: inner.ID().Role == types.RoleServer,
		inbox: make(chan transport.Message), closing: make(chan struct{}), done: make(chan struct{}),
	}
	nd.noteOne = nd.note
	t.nodes = append(t.nodes, nd)
	go nd.forward()
	return nd
}

func (nd *tracedNode) forward() {
	defer close(nd.done)
	defer close(nd.inbox)
	stage := uint8(atAckRecv)
	if nd.isServer {
		stage = atReqRecv
	}
	for m := range nd.inner.Inbox() {
		nd.record(m.Payload, m.From, stage)
		select {
		case nd.inbox <- m:
		case <-nd.closing:
			m.ReleaseArena()
		}
	}
}

// record notes every protocol message of a payload (one, or a batch
// envelope's many) at the given stage, now.
func (nd *tracedNode) record(payload []byte, peer types.ProcessID, stage uint8) {
	at := nd.tr.now()
	nd.mu.Lock()
	nd.curPeer, nd.curStage, nd.curAt = peer, stage, at
	if wire.IsBatch(payload) {
		_ = wire.ForEachInBatch(payload, nd.noteOne)
	} else {
		_ = nd.note(payload)
	}
	nd.mu.Unlock()
}

func (nd *tracedNode) note(payload []byte) error {
	id, ok := nd.identify(payload)
	if !ok {
		return nil
	}
	server := nd.curPeer.Index
	if nd.isServer {
		server = nd.inner.ID().Index
	}
	nd.events = append(nd.events, event{id: id, server: int16(server), stage: nd.curStage, at: nd.curAt})
	return nil
}

// identify decodes a payload far enough to name its operation.
func (nd *tracedNode) identify(payload []byte) (opID, bool) {
	m := &nd.scratch
	if err := wire.DecodeInto(m, payload); err != nil {
		return opID{}, false
	}
	key, ok := nd.tr.keys[m.Key]
	if !ok {
		return opID{}, false
	}
	client := nd.curPeer
	if !nd.isServer {
		client = nd.inner.ID()
	}
	switch m.Op {
	case wire.OpRead, wire.OpReadAck:
		return opID{key: key, client: int16(client.Index), n: m.RCounter}, client.Role == types.RoleReader
	case wire.OpWrite, wire.OpWriteAck:
		// An acknowledgement names the server's CURRENT timestamp, which is
		// the write's own except when a reader's write-back of a later
		// pipelined write overtook it; such acknowledgements match no
		// operation here and the chain through that server stays incomplete.
		return opID{key: key, n: int64(m.TS)}, client.Role == types.RoleWriter
	}
	return opID{}, false
}

func (nd *tracedNode) ID() types.ProcessID             { return nd.inner.ID() }
func (nd *tracedNode) Inbox() <-chan transport.Message { return nd.inbox }

func (nd *tracedNode) Send(to types.ProcessID, kind string, payload []byte) error {
	stage := uint8(atReqSend)
	if nd.isServer {
		stage = atAckSend
	}
	nd.record(payload, to, stage)
	return nd.inner.Send(to, kind, payload)
}

func (nd *tracedNode) Close() error {
	nd.closeOne.Do(func() { close(nd.closing) })
	err := nd.inner.Close()
	<-nd.done
	return err
}

// coreTarget is a deployment assembled by hand from the layers' exported
// constructors — network, core.Server (with a durable log where the
// workload has one), demux, core.Writer and core.Reader per key — the way
// Store does it internally. With a tracer, every node is decorated and every
// operation recorded.
type coreTarget struct {
	tr      *tracer // nil: the undecorated twin
	writers []*core.Writer
	readers [][]*core.Reader
	reads   [][]int64 // reads submitted so far per [key][reader-1]; a key has one submitting goroutine
	stop    []func() error
}

func assemble(sp *spec, dataDir string, tr *tracer) (*coreTarget, error) {
	t := &coreTarget{tr: tr}
	wrap := func(n transport.Node) transport.Node {
		if tr != nil {
			n = tr.wrap(n)
		}
		t.stop = append(t.stop, n.Close)
		return n
	}
	ids := append(protoutil.ServerIDs(sp.Servers), types.Writer())
	ids = append(ids, protoutil.ReaderIDs(sp.Readers)...)
	nodes := make(map[types.ProcessID]transport.Node, len(ids))
	if sp.TCP {
		tcp, _, err := tcpnet.LocalCluster(ids)
		if err != nil {
			return nil, err
		}
		for id, n := range tcp {
			nodes[id] = wrap(n)
		}
	} else {
		net := transport.NewInMemNetwork(transport.WithBatching())
		for _, id := range ids {
			n, err := net.Join(id)
			if err != nil {
				return nil, err
			}
			nodes[id] = wrap(n)
		}
		t.stop = append(t.stop, net.Close)
	}

	for i := 1; i <= sp.Servers; i++ {
		cfg := core.ServerConfig{ID: types.Server(i), Readers: sp.Readers}
		if sp.Durable {
			cfg.Durable = &durable.Options{
				Dir:   filepath.Join(dataDir, fmt.Sprintf("s%d", i)),
				Fsync: durable.FsyncAlways, SimulateCrash: true,
			}
		}
		srv, err := core.NewServer(cfg, nodes[types.Server(i)])
		if err != nil {
			_ = t.close()
			return nil, err
		}
		srv.Start()
		// Servers stop first: Stop closes the node and waits for the executor.
		t.stop = append([]func() error{func() error { srv.Stop(); return nil }}, t.stop...)
	}

	q := quorum.Config{Servers: sp.Servers, Faulty: sp.Faulty, Readers: sp.Readers}
	demux := func(id types.ProcessID) *transport.Demux {
		d := transport.NewDemux(nodes[id], protoutil.WireKeyFunc, 0)
		t.stop = append(t.stop, d.Close)
		return d
	}
	writerDemux := demux(types.Writer())
	readerDemux := make([]*transport.Demux, sp.Readers)
	for i := range readerDemux {
		readerDemux[i] = demux(types.Reader(i + 1))
	}
	t.writers = make([]*core.Writer, sp.Keys)
	t.readers = make([][]*core.Reader, sp.Keys)
	t.reads = make([][]int64, sp.Keys)
	for k := range t.writers {
		key := keyName(k)
		w, err := core.NewWriter(core.WriterConfig{Quorum: q, Key: key, Depth: sp.Depth}, writerDemux.Route(key))
		if err != nil {
			_ = t.close()
			return nil, err
		}
		t.writers[k] = w
		t.readers[k] = make([]*core.Reader, sp.Readers)
		t.reads[k] = make([]int64, sp.Readers)
		for i := range t.readers[k] {
			r, err := core.NewReader(core.ReaderConfig{Quorum: q, Key: key, Depth: sp.Depth, Nonce: readerNonce}, readerDemux[i].Route(key))
			if err != nil {
				_ = t.close()
				return nil, err
			}
			t.readers[k][i] = r
		}
	}
	return t, nil
}

func (t *coreTarget) close() error {
	var errs []error
	for _, stop := range t.stop {
		errs = append(errs, stop())
	}
	t.stop = nil
	return errors.Join(errs...)
}

// beginWrite / beginRead open the operation's record when tracing.
func (t *coreTarget) beginWrite(k int, v []byte) *opSpan {
	if t.tr == nil {
		return nil
	}
	s := t.tr.begin(opID{key: int32(k), n: int64(binary.BigEndian.Uint64(v))})
	s.value = bytes.Clone(v)
	return s
}

func (t *coreTarget) beginRead(k, reader int) *opSpan {
	t.reads[k][reader-1]++
	if t.tr == nil {
		return nil
	}
	return t.tr.begin(opID{key: int32(k), client: int16(reader), n: readerNonce + t.reads[k][reader-1]})
}

func (t *coreTarget) submitWrite(ctx context.Context, k int, v []byte, p *pending) error {
	p.span = t.beginWrite(k, v)
	f, err := t.writers[k].WriteAsync(ctx, v)
	if p.span != nil {
		p.span.submitted, p.span.failed = t.tr.now(), err != nil
	}
	p.coreWrite = f
	return err
}

func (t *coreTarget) submitRead(ctx context.Context, k, reader int, p *pending) error {
	p.span = t.beginRead(k, reader)
	f, err := t.readers[k][reader-1].ReadAsync(ctx)
	if p.span != nil {
		p.span.submitted, p.span.failed = t.tr.now(), err != nil
	}
	p.coreRead = f
	return err
}

// The blocking calls are submit-then-wait, which is exactly what
// core.Writer.Write and core.Reader.Read are.
func (t *coreTarget) write(ctx context.Context, k int, v []byte) error {
	var p pending
	if err := t.submitWrite(ctx, k, v, &p); err != nil {
		return err
	}
	_, err := p.wait(ctx)
	return err
}

func (t *coreTarget) read(ctx context.Context, k, reader int) (readOut, error) {
	var p pending
	if err := t.submitRead(ctx, k, reader, &p); err != nil {
		return readOut{}, err
	}
	return p.wait(ctx)
}

// span is one recorded interval: name, start, end, the span that caused it,
// and the operation all of an operation's spans share.
type span struct {
	op, id, parent int32
	name           uint8
	server         int16
	start, end     int64
}

var spanNames = [...]string{"op", "client.submit", "net.request", "server.handle", "net.ack", "client.complete"}

const (
	spanOp = iota
	spanSubmit
	spanNetRequest
	spanHandle
	spanNetAck
	spanComplete
)

// chain is one operation's blocking path, in ns.
type chain struct{ submit, netRequest, handle, netAck, complete, op int64 }

// harvest joins the period's operation records with the decorators' events:
// it appends the spans and per-key histories, and returns the blocking chain
// of every operation whose chain is complete.
func (t *tracer) harvest(sp *spec, spans *[]span, histories map[string]history.History, opSeq *int32) []chain {
	ops := t.slab[:t.next.Load()]
	index := make(map[opID]int32, len(ops))
	for i := range ops {
		index[ops[i].id] = int32(i)
	}
	// at[(op*S + server-1)*nStages + stage]; 0 means "not seen".
	S := sp.Servers
	at := make([]int64, len(ops)*S*nStages)
	for _, nd := range t.nodes {
		nd.mu.Lock()
		for _, ev := range nd.events {
			i, ok := index[ev.id]
			if !ok || ev.server < 1 || int(ev.server) > S {
				continue
			}
			if slot := &at[(int(i)*S+int(ev.server)-1)*nStages+int(ev.stage)]; *slot == 0 {
				*slot = ev.at
			}
		}
		nd.events = nd.events[:0]
		nd.mu.Unlock()
	}

	need := S - sp.Faulty
	var chains []chain
	type arrival struct {
		at     int64
		server int
	}
	arrivals := make([]arrival, 0, S)
	ackSpan := make([]int32, S+1) // by server: the id of its net.ack span
	nextSpan := int32(len(*spans))
	add := func(s span) int32 {
		nextSpan++
		s.id = nextSpan
		*spans = append(*spans, s)
		return s.id
	}
	for i := range ops {
		o := &ops[i]
		*opSeq++
		seq := *opSeq

		h := history.Operation{
			ID: int64(seq), Process: types.Writer(), Kind: history.OpWrite, Argument: types.Value(o.value),
			Invoked: t.base.Add(time.Duration(o.start)), Returned: t.base.Add(time.Duration(o.end)),
			Completed: !o.failed, Failed: o.failed,
		}
		if o.id.client != 0 {
			h.Process, h.Kind = types.Reader(int(o.id.client)), history.OpRead
			h.Argument, h.Result, h.ResultTS = nil, types.Value(o.value), types.Timestamp(o.version)
		}
		key := keyName(int(o.id.key))
		histories[key] = append(histories[key], h)
		if o.failed {
			continue
		}

		root := add(span{op: seq, name: spanOp, start: o.start, end: o.end})
		add(span{op: seq, parent: root, name: spanSubmit, start: o.start, end: o.submitted})
		arrivals = arrivals[:0]
		clear(ackSpan)
		for s := 1; s <= S; s++ {
			e := at[(i*S+s-1)*nStages : (i*S+s)*nStages]
			if e[atReqSend] == 0 || e[atReqRecv] == 0 || e[atAckSend] == 0 || e[atAckRecv] == 0 {
				continue
			}
			req := add(span{op: seq, parent: root, name: spanNetRequest, server: int16(s), start: e[atReqSend], end: e[atReqRecv]})
			hnd := add(span{op: seq, parent: req, name: spanHandle, server: int16(s), start: e[atReqRecv], end: e[atAckSend]})
			ackSpan[s] = add(span{op: seq, parent: hnd, name: spanNetAck, server: int16(s), start: e[atAckSend], end: e[atAckRecv]})
			arrivals = append(arrivals, arrival{at: e[atAckRecv], server: s})
		}
		if len(arrivals) < need {
			continue // some acknowledgement could not be matched; no blocking chain
		}
		slices.SortFunc(arrivals, func(a, b arrival) int { return int(a.at - b.at) })
		b := arrivals[need-1].server
		e := at[(i*S+b-1)*nStages : (i*S+b)*nStages]
		if e[atAckRecv] > o.end {
			continue
		}
		add(span{op: seq, parent: ackSpan[b], name: spanComplete, server: int16(b), start: e[atAckRecv], end: o.end})
		chains = append(chains, chain{
			submit:     o.submitted - o.start,
			netRequest: e[atReqRecv] - e[atReqSend],
			handle:     e[atAckSend] - e[atReqRecv],
			netAck:     e[atAckRecv] - e[atAckSend],
			complete:   o.end - e[atAckRecv],
			op:         o.end - o.start,
		})
	}
	t.next.Store(0)
	return chains
}

type traceOpts struct {
	seed     int64
	ops      int // > 0 overrides the traced round size
	rounds   int // > 0 overrides the 4 traced rounds
	workDir  string
	spanFile string
}

type traceResult struct {
	metrics     map[string]measured
	spans       int
	attempted   int
	failed      int
	keysChecked int
	incomplete  int // operations whose blocking chain could not be reconstructed
}

// tracedRounds and maxTracedOps size the traced run: four rounds of a
// quarter of the workload's round, capped so the spans stay in memory.
const (
	tracedRounds = 4
	maxTracedOps = 8192
)

// tracedRun drives the workload's operation stream through a decorated and
// an undecorated hand-built deployment, alternating rounds.
func tracedRun(ctx context.Context, sp *spec, o traceOpts) (*traceResult, error) {
	ops := min(sp.Ops/4, maxTracedOps)
	if o.ops > 0 {
		ops = o.ops
	}
	rounds := tracedRounds
	if o.rounds > 0 {
		rounds = o.rounds
	}

	tr := newTracer(sp)
	tr.slab = make([]opSpan, max(ops, sp.Keys*(1+sp.Readers)))
	traced, err := assemble(sp, filepath.Join(o.workDir, "traced"), tr)
	if err != nil {
		return nil, fmt.Errorf("assemble traced deployment: %w", err)
	}
	defer traced.close()
	plain, err := assemble(sp, filepath.Join(o.workDir, "plain"), nil)
	if err != nil {
		return nil, fmt.Errorf("assemble plain deployment: %w", err)
	}
	defer plain.close()

	var spans []span
	histories := make(map[string]history.History, sp.Keys)
	var opSeq int32
	res := &traceResult{metrics: map[string]measured{}}

	clientsOf := func(t *coreTarget) ([]*client, error) {
		if err := preload(ctx, sp, t); err != nil {
			return nil, err
		}
		clients := make([]*client, sp.Clients)
		for c, s := range newStreams(sp, o.seed) {
			clients[c] = newClient(t, s, newChecker(sp.Keys, 1), sp.Depth, ops/sp.Clients)
		}
		return clients, nil
	}
	tracedClients, err := clientsOf(traced)
	if err != nil {
		return nil, err
	}
	tr.harvest(sp, &spans, histories, &opSeq) // the preload belongs to the histories, not to the statistics
	plainClients, err := clientsOf(plain)
	if err != nil {
		return nil, err
	}

	var scratch latScratch
	// One warm-up round each, recorded (every operation must be in the
	// history) but kept out of the statistics.
	runRound(ctx, plainClients, &scratch)
	runRound(ctx, tracedClients, &scratch)
	tr.harvest(sp, &spans, histories, &opSeq)

	stages := map[string][]float64{}
	var tracedOpsPerS, plainOpsPerS []float64
	for r := 0; r < rounds; r++ {
		wall, reads, writes := runRound(ctx, plainClients, &scratch)
		plainOpsPerS = append(plainOpsPerS, float64(len(reads)+len(writes))/wall.Seconds())
		wall, reads, writes = runRound(ctx, tracedClients, &scratch)
		tracedOpsPerS = append(tracedOpsPerS, float64(len(reads)+len(writes))/wall.Seconds())
		res.attempted += 2 * (ops / sp.Clients * sp.Clients)

		chains := tr.harvest(sp, &spans, histories, &opSeq)
		res.incomplete += len(reads) + len(writes) - len(chains)
		if len(chains) == 0 {
			continue
		}
		med := func(name string, f func(chain) int64) {
			v := make([]float64, len(chains))
			for i, c := range chains {
				v[i] = float64(f(c)) / 1e3
			}
			stages[name] = append(stages[name], median(v))
		}
		med("trace.client_submit_us", func(c chain) int64 { return c.submit })
		med("trace.net_request_us", func(c chain) int64 { return c.netRequest })
		med("trace.server_handle_us", func(c chain) int64 { return c.handle })
		med("trace.net_ack_us", func(c chain) int64 { return c.netAck })
		med("trace.client_complete_us", func(c chain) int64 { return c.complete })
		med("trace.op_us", func(c chain) int64 { return c.op })
		med("trace.unattributed_us", func(c chain) int64 {
			return c.op - c.submit - c.netRequest - c.handle - c.netAck - c.complete
		})
	}

	for _, clients := range [][]*client{tracedClients, plainClients} {
		failed, violations, first := tally(clients)
		res.failed += failed + violations
		if first != nil {
			return nil, fmt.Errorf("traced run: %w", first)
		}
	}
	for key := range histories {
		h := histories[key]
		sort.SliceStable(h, func(i, j int) bool { return h[i].Invoked.Before(h[j].Invoked) })
	}
	report, err := atomicity.CheckKeyed(histories, atomicity.CheckSWMR, 0)
	if err != nil {
		return nil, fmt.Errorf("atomicity check: %w", err)
	}
	if !report.OK {
		bad := report.FailedKeys()
		return nil, fmt.Errorf("atomicity violated on %d keys; %s: %v", len(bad), bad[0], report.Reports[bad[0]].Violations[0])
	}
	res.keysChecked = len(histories)

	for _, def := range traceLayer {
		if def.Name == "trace.overhead_share" {
			continue
		}
		v := stages[def.Name]
		res.metrics[def.Name] = measured{Value: quietQuartile(v, false), Median: median(v), IQR: iqr(v), N: len(v)}
	}
	share := 0.0
	if p := quietQuartile(plainOpsPerS, true); p > 0 {
		share = 1 - quietQuartile(tracedOpsPerS, true)/p
	}
	res.metrics["trace.overhead_share"] = measured{Value: share, N: len(plainOpsPerS)}

	res.spans = len(spans)
	if err := writeSpans(o.spanFile, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// writeSpans writes the run's spans as CSV: one line per span, spans of one
// operation sharing the op column, parent 0 marking an operation's root.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("op,span,parent,name,server,start_ns,end_ns\n")
	var line []byte
	for _, s := range spans {
		line = strconv.AppendInt(line[:0], int64(s.op), 10)
		line = strconv.AppendInt(append(line, ','), int64(s.id), 10)
		line = strconv.AppendInt(append(line, ','), int64(s.parent), 10)
		line = append(append(append(line, ','), spanNames[s.name]...), ',')
		line = strconv.AppendInt(line, int64(s.server), 10)
		line = strconv.AppendInt(append(line, ','), s.start, 10)
		line = strconv.AppendInt(append(line, ','), s.end, 10)
		w.Write(append(line, '\n'))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
