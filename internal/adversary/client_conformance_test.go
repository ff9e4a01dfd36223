package adversary

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fastread/internal/abd"
	"fastread/internal/driver"
	_ "fastread/internal/maxmin"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	_ "fastread/internal/regular"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Client conformance, the client-side twin of protoutil's TestShellConformance.
// It lives here because this package's strawmen are clients too and nothing
// outside it can build them: every protocol's writer and reader, built through
// its driver, plus the multi-writer ABD clients and the strawmen, must show the
// same in-flight discipline — cancellation, shutdown,
// acknowledgement counting, admission, slot accounting, submission order —
// because all of them are the one protoutil.Client underneath. The servers
// are scripted: they log every request and acknowledge by echoing it, which
// every protocol's acceptance rule takes (the request's nonce and timestamp
// come back, the requester is in the seen set, and a timestamp-0 write-back
// carries the empty signature the Byzantine reader expects).

var writerKeys = sig.MustKeyPair()

// within fails the test unless fn returns within five seconds.
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

// submitFn starts one operation on the client under test and returns the wait
// for its outcome.
type submitFn func(ctx context.Context) (wait func(context.Context) error, err error)

// engineSubmit adapts a bare engine client.
func engineSubmit[T any](cl *protoutil.Client[T], arg types.Value) submitFn {
	return func(ctx context.Context) (func(context.Context) error, error) {
		f, err := cl.Submit(ctx, arg)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) error { _, err := f.Result(ctx); return err }, nil
	}
}

// clientKind is one client under test.
type clientKind struct {
	name   string
	quorum quorum.Config
	id     types.ProcessID
	// need is the quorum each round waits for.
	need int
	// second is the request op of a two-round operation's second round (zero
	// for one-round operations).
	second wire.Op
	// swmrWriter marks the single-writer client, which has rows of its own.
	swmrWriter bool
	// serial marks the clients that pin their own depth to one.
	serial bool
	// build makes the client; a writer writes *value, read at each submission.
	build func(cfg protoutil.ClientConfig, node transport.Node, value *types.Value) (submitFn, error)
}

var conformanceValue = types.Value("conformance")

func clientKinds(t *testing.T) []clientKind {
	crash := quorum.Config{Servers: 5, Faulty: 1, Readers: 2}
	byz := quorum.Config{Servers: 8, Faulty: 1, Malicious: 1, Readers: 2}
	var kinds []clientKind
	for _, name := range driver.Names() {
		drv, _ := driver.Lookup(name)
		q := crash
		if drv.NeedsSignatures {
			q = byz
		}
		need := q.Majority()
		if strings.HasPrefix(name, "fast") {
			need = q.AckQuorum()
		}
		var second wire.Op
		if name == "abd" {
			second = wire.OpWriteBack
		}
		if err := drv.Validate(q); err != nil {
			t.Fatalf("driver %s rejects the conformance shape %v: %v", name, q, err)
		}
		kinds = append(kinds,
			clientKind{name: name + " writer", quorum: q, id: types.Writer(), need: need, swmrWriter: true,
				build: func(cfg protoutil.ClientConfig, node transport.Node, value *types.Value) (submitFn, error) {
					w, err := drv.NewWriter(cfg, node)
					if err != nil {
						return nil, err
					}
					return func(ctx context.Context) (func(context.Context) error, error) {
						f, err := w.WriteAsync(ctx, *value)
						if err != nil {
							return nil, err
						}
						return func(ctx context.Context) error { _, err := f.Result(ctx); return err }, nil
					}, nil
				}},
			clientKind{name: name + " reader", quorum: q, id: types.Reader(1), need: need, second: second,
				build: func(cfg protoutil.ClientConfig, node transport.Node, _ *types.Value) (submitFn, error) {
					r, err := drv.NewReader(cfg, node)
					if err != nil {
						return nil, err
					}
					return func(ctx context.Context) (func(context.Context) error, error) {
						f, err := r.ReadAsync(ctx)
						if err != nil {
							return nil, err
						}
						return func(ctx context.Context) error { _, err := f.Result(ctx); return err }, nil
					}, nil
				}})
	}
	// The depth-one users: they pin Depth to 1 whatever the row asks for.
	return append(kinds,
		clientKind{name: "abd mwmr writer", quorum: crash, id: types.Reader(1), need: crash.Majority(), second: wire.OpWrite, serial: true,
			build: func(cfg protoutil.ClientConfig, node transport.Node, _ *types.Value) (submitFn, error) {
				w, err := abd.NewMWWriter(cfg, node, 1)
				if err != nil {
					return nil, err
				}
				return engineSubmit(w.Client, conformanceValue), nil
			}},
		clientKind{name: "abd mwmr reader", quorum: crash, id: types.Reader(1), need: crash.Majority(), second: wire.OpWriteBack, serial: true,
			build: func(cfg protoutil.ClientConfig, node transport.Node, _ *types.Value) (submitFn, error) {
				r, err := abd.NewMWReader(cfg, node)
				if err != nil {
					return nil, err
				}
				return engineSubmit(r.Client, nil), nil
			}},
		clientKind{name: "naive reader", quorum: crash, id: types.Reader(1), need: crash.AckQuorum(), serial: true,
			build: func(cfg protoutil.ClientConfig, node transport.Node, _ *types.Value) (submitFn, error) {
				r, err := newNaiveReader(cfg.Quorum, node)
				if err != nil {
					return nil, err
				}
				return engineSubmit(r.Client, nil), nil
			}},
		clientKind{name: "naive mwmr writer", quorum: crash, id: types.Reader(1), need: crash.AckQuorum(), serial: true,
			build: func(cfg protoutil.ClientConfig, node transport.Node, _ *types.Value) (submitFn, error) {
				w, err := newNaiveMWWriter(cfg.Quorum, node, 1)
				if err != nil {
					return nil, err
				}
				return engineSubmit(w, conformanceValue), nil
			}},
		clientKind{name: "naive mwmr reader", quorum: crash, id: types.Reader(1), need: crash.AckQuorum(), serial: true,
			build: func(cfg protoutil.ClientConfig, node transport.Node, _ *types.Value) (submitFn, error) {
				r, err := newNaiveMWReader(cfg.Quorum, node)
				if err != nil {
					return nil, err
				}
				return engineSubmit(r, nil), nil
			}},
	)
}

// scriptedServers is the fake server side of one row: S nodes that log every
// request and either acknowledge it at once or hold it until released.
type scriptedServers struct {
	t     *testing.T
	nodes []transport.Node

	mu   sync.Mutex
	hold func(req *wire.Message) bool // nil: acknowledge everything
	ack  func(req *wire.Message) *wire.Message
	log  [][]wire.Message // per server, in arrival order
	held [][]heldRequest  // per server

	// answered, when non-nil, is signalled after each acknowledgement was
	// handed to the network.
	answered chan struct{}
}

type heldRequest struct {
	from types.ProcessID
	req  wire.Message
}

// echoAck acknowledges a request by echoing it.
func echoAck(from types.ProcessID) func(req *wire.Message) *wire.Message {
	return func(req *wire.Message) *wire.Message {
		op, _ := wire.AckFor(req.Op)
		ack := *req
		ack.Op = op
		ack.Seen = []types.ProcessID{from}
		return &ack
	}
}

func startScripted(t *testing.T, net *transport.InMemNetwork, servers int, client types.ProcessID) *scriptedServers {
	t.Helper()
	s := &scriptedServers{t: t, ack: echoAck(client), log: make([][]wire.Message, servers), held: make([][]heldRequest, servers)}
	for i := 0; i < servers; i++ {
		node := join(t, net, types.Server(i+1))
		s.nodes = append(s.nodes, node)
		go func(i int) {
			for msg := range node.Inbox() {
				transport.Expand(msg, func(m transport.Message) { s.handle(i, m) })
				msg.ReleaseArena()
			}
		}(i)
	}
	return s
}

func (s *scriptedServers) handle(i int, m transport.Message) {
	decoded, err := wire.Decode(m.Payload)
	if err != nil || !decoded.Op.IsRequest() {
		return
	}
	req := *decoded.Clone()
	s.mu.Lock()
	s.log[i] = append(s.log[i], req)
	if s.hold != nil && s.hold(&req) {
		s.held[i] = append(s.held[i], heldRequest{m.From, req})
		s.mu.Unlock()
		return
	}
	ack := s.ack(&req)
	s.mu.Unlock()
	s.send(i, m.From, ack)
}

// send delivers one message from server i to a client.
func (s *scriptedServers) send(i int, to types.ProcessID, m *wire.Message) {
	// A send can only fail once the row is over and its network closed.
	_ = s.nodes[i].Send(to, m.Kind(), wire.MustEncode(m))
	if s.answered != nil {
		s.answered <- struct{}{}
	}
}

// holdIf makes the servers hold (log but not acknowledge) the requests hold
// selects; nil releases everything held so far and acknowledges from then on.
func (s *scriptedServers) holdIf(hold func(req *wire.Message) bool) {
	s.mu.Lock()
	s.hold = hold
	var release [][]heldRequest
	if hold == nil {
		release, s.held = s.held, make([][]heldRequest, len(s.nodes))
	}
	ack := s.ack
	s.mu.Unlock()
	for i, reqs := range release {
		for _, h := range reqs {
			s.send(i, h.from, ack(&h.req))
		}
	}
}

func holdAll(*wire.Message) bool { return true }

// requests returns a copy of server i's request log.
func (s *scriptedServers) requests(i int) []wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Message(nil), s.log[i]...)
}

// waitLogged blocks until every server has logged at least n requests.
func (s *scriptedServers) waitLogged(n int) {
	s.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		short := false
		for i := range s.nodes {
			if len(s.requests(i)) < n {
				short = true
			}
		}
		if !short {
			return
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("servers did not all receive %d requests", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// hookNode runs after once each Send has been handed to the network, before
// it returns to the engine: the place to act in the middle of a broadcast.
type hookNode struct {
	transport.Node
	after func(kind string)
}

func (n hookNode) Send(to types.ProcessID, kind string, payload []byte) error {
	if err := n.Node.Send(to, kind, payload); err != nil {
		return err
	}
	n.after(kind)
	return nil
}

// row is one conformance row's fixture.
type row struct {
	t       *testing.T
	kind    clientKind
	net     *transport.InMemNetwork
	servers *scriptedServers
	node    transport.Node
	submit  submitFn
	depth   int
	// value is what the single writer's next submission writes.
	value types.Value
}

func newRow(t *testing.T, kind clientKind, depth int, wrap func(transport.Node, *scriptedServers) transport.Node) *row {
	t.Helper()
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	r := &row{t: t, kind: kind, net: net, depth: depth, value: conformanceValue}
	r.servers = startScripted(t, net, kind.quorum.Servers, kind.id)
	r.node = join(t, net, kind.id)
	node := r.node
	if wrap != nil {
		node = wrap(node, r.servers)
	}
	cfg := protoutil.ClientConfig{Quorum: kind.quorum, Key: "k", Depth: depth, Signer: writerKeys.Signer, Verifier: writerKeys.Verifier}
	submit, err := kind.build(cfg, node, &r.value)
	if err != nil {
		t.Fatalf("build %s: %v", kind.name, err)
	}
	r.submit = submit
	if kind.serial {
		r.depth = 1
	}
	return r
}

// firstRound selects an operation's first-round requests.
func (k clientKind) firstRound(req *wire.Message) bool { return req.Op != k.second }

// secondRound selects a two-round operation's second-round requests.
func (k clientKind) secondRound(req *wire.Message) bool { return req.Op == k.second }

// mustSubmit submits within a second or fails the row. The bound is its own
// timer, not derived from ctx: a row may cancel ctx while the submission is
// under way, and that must surface as the submission's outcome, not race it.
func (r *row) mustSubmit(ctx context.Context) func(context.Context) error {
	r.t.Helper()
	bounded, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	type started struct {
		wait func(context.Context) error
		err  error
	}
	ch := make(chan started, 1)
	go func() {
		wait, err := r.submit(ctx)
		ch <- started{wait, err}
	}()
	select {
	case s := <-ch:
		if s.err != nil {
			r.t.Fatalf("submit: %v", s.err)
		}
		return s.wait
	case <-bounded.Done():
		r.t.Fatal("submit blocked with a free slot")
		return nil
	}
}

// outcome waits for an operation on a goroutine of its own: against a
// deadlocked engine even abandoning the wait blocks.
func outcome(wait func(context.Context) error) <-chan error {
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- wait(ctx)
	}()
	return done
}

// mustFinish waits for an operation's outcome within five seconds.
func (r *row) mustFinish(wait func(context.Context) error) error {
	r.t.Helper()
	return r.mustArrive(outcome(wait))
}

func (r *row) mustArrive(done <-chan error) error {
	r.t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		r.t.Fatal("operation did not resolve")
		return nil
	}
}

// expectFull asserts that one more submission blocks: the pipeline is at
// depth.
func (r *row) expectFull() {
	r.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if wait, err := r.submit(ctx); !errors.Is(err, context.DeadlineExceeded) {
		r.t.Fatalf("submission %d of depth %d: err = %v (admitted: %v), want it to block until the deadline", r.depth+1, r.depth, err, wait != nil)
	}
}

func TestClientConformance(t *testing.T) {
	for _, kind := range clientKinds(t) {
		t.Run(kind.name, func(t *testing.T) {
			t.Run("cancel aborts only that operation", func(t *testing.T) {
				r := newRow(t, kind, 4, nil)
				r.servers.holdIf(holdAll)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				victim := r.mustSubmit(ctx)
				var sibling func(context.Context) error
				if r.depth > 1 {
					sibling = r.mustSubmit(context.Background())
				}
				cancel()
				if err := r.mustFinish(victim); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled operation resolved with %v, want context.Canceled", err)
				}
				if sibling == nil {
					// Depth one: the sibling is the NEXT operation, which must
					// find the slot free and its own acknowledgements intact.
					sibling = r.mustSubmit(context.Background())
				}
				r.servers.holdIf(nil)
				if err := r.mustFinish(sibling); err != nil {
					t.Fatalf("sibling of a cancelled operation failed: %v", err)
				}
			})

			t.Run("closing the node fails pending and later operations", func(t *testing.T) {
				r := newRow(t, kind, 4, nil)
				r.servers.holdIf(holdAll)
				pending := r.mustSubmit(context.Background())
				_ = r.node.Close()
				if err := r.mustFinish(pending); !errors.Is(err, protoutil.ErrInboxClosed) {
					t.Fatalf("pending operation resolved with %v, want ErrInboxClosed", err)
				}
				for i := 0; i < r.depth+1; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					wait, err := r.submit(ctx)
					if err == nil {
						err = wait(ctx)
					}
					cancel()
					if !errors.Is(err, protoutil.ErrInboxClosed) {
						t.Fatalf("operation %d after close: %v, want ErrInboxClosed", i, err)
					}
				}
			})

			t.Run("acknowledgements count once per server and noise is ignored", func(t *testing.T) {
				r := newRow(t, kind, 4, nil)
				// Hold the first round only; a second round is acknowledged.
				r.servers.holdIf(kind.firstRound)
				wait := r.mustSubmit(context.Background())
				r.servers.waitLogged(1)
				req, need := r.servers.requests(0)[0], kind.need
				valid := r.servers.ack(&req)
				// need−1 distinct servers acknowledge; the first one three times.
				for i := 0; i < need-1; i++ {
					r.servers.send(i, kind.id, valid)
				}
				r.servers.send(0, kind.id, valid)
				r.servers.send(0, kind.id, valid)
				// From the last needed server: a wrong-key and a stale-nonce
				// acknowledgement; from a non-server: a perfectly valid one.
				wrongKey := *valid
				wrongKey.Key = "another-register"
				r.servers.send(need-1, kind.id, &wrongKey)
				stale := *valid
				if kind.swmrWriter {
					stale.TS--
				} else {
					stale.RCounter--
				}
				r.servers.send(need-1, kind.id, &stale)
				impostor := join(t, r.net, types.Reader(9))
				if err := impostor.Send(kind.id, valid.Kind(), wire.MustEncode(valid)); err != nil {
					t.Fatal(err)
				}
				done := outcome(wait)
				select {
				case err := <-done:
					t.Fatalf("operation resolved (%v) on %d distinct valid acknowledgements of %d", err, need-1, need)
				case <-time.After(60 * time.Millisecond):
				}
				// The rejected acknowledgements did not use up their sender.
				r.servers.send(need-1, kind.id, valid)
				if err := r.mustArrive(done); err != nil {
					t.Fatalf("operation failed once its quorum assembled: %v", err)
				}
			})

			t.Run("submission beyond depth blocks or is shed", func(t *testing.T) {
				r := newRow(t, kind, 2, nil)
				r.servers.holdIf(holdAll)
				var waits []func(context.Context) error
				for i := 0; i < r.depth; i++ {
					waits = append(waits, r.mustSubmit(context.Background()))
				}
				r.expectFull()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if _, err := r.submit(protoutil.WithAdmissionWait(ctx, 5*time.Millisecond)); !errors.Is(err, protoutil.ErrOverloaded) {
					t.Fatalf("submission beyond depth with an admission budget: %v, want ErrOverloaded", err)
				}
				r.servers.holdIf(nil)
				for _, wait := range waits {
					if err := r.mustFinish(wait); err != nil {
						t.Fatalf("in-flight operation failed after the shed: %v", err)
					}
				}
			})

			t.Run("no slot leaks across completions, aborts and round hand-overs", func(t *testing.T) {
				r := newRow(t, kind, 3, nil)
				// Completed operations (every round acknowledged).
				for i := 0; i < 2; i++ {
					if err := r.mustFinish(r.mustSubmit(context.Background())); err != nil {
						t.Fatalf("operation %d: %v", i, err)
					}
				}
				// Aborted in the first round, then (two-round operations)
				// aborted in the second: the slot travelled across the
				// hand-over and must still come back.
				abort := func(hold func(*wire.Message) bool, rounds int) {
					logged := len(r.servers.requests(0))
					r.servers.holdIf(hold)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					wait := r.mustSubmit(ctx)
					// The held round's request is on every server first.
					r.servers.waitLogged(logged + rounds)
					cancel()
					if err := r.mustFinish(wait); !errors.Is(err, context.Canceled) {
						t.Fatalf("operation aborted in round %d resolved with %v", rounds, err)
					}
					r.servers.holdIf(nil)
				}
				abort(holdAll, 1)
				if kind.second != 0 {
					abort(kind.secondRound, 2)
				}
				if err := r.mustFinish(r.mustSubmit(context.Background())); err != nil {
					t.Fatalf("operation after the aborts: %v", err)
				}
				// Exactly depth operations fit again.
				r.servers.holdIf(holdAll)
				var waits []func(context.Context) error
				for i := 0; i < r.depth; i++ {
					waits = append(waits, r.mustSubmit(context.Background()))
				}
				r.expectFull()
				r.servers.holdIf(nil)
				for _, wait := range waits {
					if err := r.mustFinish(wait); err != nil {
						t.Fatalf("operation failed: %v", err)
					}
				}
			})

			t.Run("an acknowledgement that beats the broadcast's return still counts", func(t *testing.T) {
				// Every Send returns only after that server's acknowledgement
				// was handed to the network and had time to reach the
				// dispatcher: the fastest possible servers, as the engine sees
				// them.
				r := newRow(t, kind, 1, func(node transport.Node, s *scriptedServers) transport.Node {
					s.answered = make(chan struct{}, 64)
					return hookNode{Node: node, after: func(string) {
						select {
						case <-s.answered:
							time.Sleep(2 * time.Millisecond)
						case <-time.After(5 * time.Second):
						}
					}}
				})
				if err := r.mustFinish(r.mustSubmit(context.Background())); err != nil {
					t.Fatalf("operation against servers faster than the broadcast: %v", err)
				}
			})

			if kind.second != 0 {
				t.Run("a cancellation between two rounds still aborts the operation", func(t *testing.T) {
					// The context ends while the second round's broadcast is
					// under way: the first round is over, the second not yet
					// bound to the future. The intent must stick.
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					r := newRow(t, kind, 1, func(node transport.Node, _ *scriptedServers) transport.Node {
						return hookNode{Node: node, after: func(sent string) {
							if sent == kind.second.String() {
								cancel()
								time.Sleep(20 * time.Millisecond)
							}
						}}
					})
					r.servers.holdIf(kind.secondRound)
					if err := r.mustFinish(r.mustSubmit(ctx)); !errors.Is(err, context.Canceled) {
						t.Fatalf("operation cancelled between its rounds resolved with %v, want context.Canceled", err)
					}
					// And its slot came back.
					r.servers.holdIf(nil)
					if err := r.mustFinish(r.mustSubmit(context.Background())); err != nil {
						t.Fatalf("operation after the cancellation: %v", err)
					}
				})
			}

			if !kind.swmrWriter {
				return
			}

			t.Run("pipelined writes reach each server in timestamp order", func(t *testing.T) {
				r := newRow(t, kind, 16, nil)
				// Four submitters race for the handle: issuing a timestamp and
				// broadcasting it must be one atomic step per handle.
				const submitters, each = 4, 16
				var wg sync.WaitGroup
				for g := 0; g < submitters; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < each; i++ {
							wait, err := r.submit(context.Background())
							if err == nil {
								err = wait(context.Background())
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				within(t, "the pipelined writes", wg.Wait)
				r.servers.waitLogged(submitters * each)
				for i := range r.servers.nodes {
					for n, req := range r.servers.requests(i) {
						if req.TS != types.Timestamp(n+1) {
							t.Fatalf("s%d: request %d carries ts=%d, want %d", i+1, n, req.TS, n+1)
						}
					}
				}
			})

			t.Run("a write that cannot be sent leaves the handle as it was", func(t *testing.T) {
				// Depth one: the refused write must also give its slot back.
				r := newRow(t, kind, 1, nil)
				if err := r.mustFinish(r.mustSubmit(context.Background())); err != nil {
					t.Fatal(err)
				}
				// The codec refuses the value, so nothing reaches the wire —
				// and the timestamp and the remembered prev must not move, or
				// every later write carries the refused value as its prev.
				r.value = make(types.Value, wire.MaxValueSize+1)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if wait, err := r.submit(ctx); err == nil {
					t.Fatalf("an oversized write was submitted (outcome %v)", wait(ctx))
				}
				r.value = types.Value("after")
				if err := r.mustFinish(r.mustSubmit(context.Background())); err != nil {
					t.Fatalf("write after the refused one: %v", err)
				}
				r.servers.waitLogged(2)
				for i := range r.servers.nodes {
					reqs := r.servers.requests(i)
					if len(reqs) != 2 {
						t.Fatalf("s%d logged %d requests, want 2", i+1, len(reqs))
					}
					if got := reqs[1]; got.TS != 2 || !got.Cur.Equal(r.value) || !got.Prev.Equal(conformanceValue) {
						t.Fatalf("s%d: write after the refused one is (ts=%d, %s, prev %s), want (ts=2, %s, prev %s)", i+1, got.TS, got.Cur, got.Prev, r.value, conformanceValue)
					}
				}
			})

			t.Run("a fresh writer against newer servers times out", func(t *testing.T) {
				r := newRow(t, kind, 4, nil)
				// The servers already hold a previous incarnation's ts=100 and
				// acknowledge with it, as every protocol's server does.
				r.servers.mu.Lock()
				echo := r.servers.ack
				r.servers.ack = func(req *wire.Message) *wire.Message {
					ack := echo(req)
					ack.TS = 100
					return ack
				}
				r.servers.mu.Unlock()
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				defer cancel()
				wait := r.mustSubmit(ctx)
				if err := wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("write at ts=1 against servers at ts=100: %v, want a visible timeout", err)
				}
			})
		})
	}
}
