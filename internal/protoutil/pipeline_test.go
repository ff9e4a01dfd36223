package protoutil

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// pipeNet joins a client and n servers on a fresh in-memory network.
func pipeNet(t *testing.T, servers int) (transport.Node, []transport.Node) {
	t.Helper()
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]transport.Node, servers)
	for i := range out {
		n, err := net.Join(types.Server(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = n
	}
	return client, out
}

// ackFrom sends an ack carrying rc from the given server node to reader 1.
func ackFrom(t *testing.T, srv transport.Node, rc int64, ts types.Timestamp) {
	t.Helper()
	payload := wire.MustEncode(&wire.Message{Op: wire.OpReadAck, TS: ts, RCounter: rc})
	if err := srv.Send(types.Reader(1), "readack", payload); err != nil {
		t.Fatal(err)
	}
}

// rcFilter accepts read acks carrying exactly rc.
func rcFilter(rc int64) AckFilter {
	return func(_ types.ProcessID, m *wire.Message) bool {
		return m.Op == wire.OpReadAck && m.RCounter == rc
	}
}

func TestPipelineOpsCompleteOutOfOrder(t *testing.T) {
	client, servers := pipeNet(t, 2)
	p := NewPipeline(client, 4, nil)
	ctx := context.Background()

	results := make(chan int64, 2)
	register := func(rc int64) *Op {
		if err := p.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		return p.Register(2, rcFilter(rc), func(acks []Ack, err error) {
			if err != nil {
				t.Errorf("op rc=%d: %v", rc, err)
				return
			}
			if len(acks) != 2 {
				t.Errorf("op rc=%d completed with %d acks", rc, len(acks))
			}
			results <- rc
		})
	}
	register(1)
	register(2)

	// Complete rc=2 first: its quorum assembles while rc=1 still waits.
	ackFrom(t, servers[0], 2, 0)
	ackFrom(t, servers[1], 2, 0)
	select {
	case got := <-results:
		if got != 2 {
			t.Fatalf("first completion rc=%d, want 2", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rc=2 never completed")
	}
	// A duplicate ack from the same server must not complete rc=1.
	ackFrom(t, servers[0], 1, 0)
	ackFrom(t, servers[0], 1, 0)
	select {
	case got := <-results:
		t.Fatalf("rc=%d completed on a duplicate-server quorum", got)
	case <-time.After(50 * time.Millisecond):
	}
	ackFrom(t, servers[1], 1, 0)
	select {
	case got := <-results:
		if got != 1 {
			t.Fatalf("second completion rc=%d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rc=1 never completed")
	}
}

// TestPipelineOneAckSatisfiesSeveralOps mirrors the majority writers'
// filters (ts' >= ts): a single acknowledgement may legitimately count
// toward every in-flight write it covers.
func TestPipelineOneAckSatisfiesSeveralOps(t *testing.T) {
	client, servers := pipeNet(t, 1)
	p := NewPipeline(client, 4, nil)
	ctx := context.Background()

	completions := make(chan int64, 2)
	for _, ts := range []types.Timestamp{1, 2} {
		want := ts
		if err := p.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		p.Register(1, func(_ types.ProcessID, m *wire.Message) bool {
			return m.Op == wire.OpReadAck && m.TS >= want
		}, func(acks []Ack, err error) {
			if err != nil {
				t.Errorf("op ts=%d: %v", want, err)
				return
			}
			completions <- int64(want)
		})
	}
	// One ack with ts=2 covers both pending ops.
	ackFrom(t, servers[0], 0, 2)
	got := map[int64]bool{}
	for len(got) < 2 {
		select {
		case ts := <-completions:
			got[ts] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %v completed on the shared ack", got)
		}
	}
}

// TestPipelineDeliverDropsScratchViews: an ack no operation accepts leaves no
// view of its payload behind in the decode scratch (an idle handle must not
// pin the last batch it saw), and delivering it still allocates nothing.
func TestPipelineDeliverDropsScratchViews(t *testing.T) {
	client, _ := pipeNet(t, 1)
	p := NewPipeline(client, 4, nil)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Register(1, rcFilter(99), func([]Ack, error) {})
	payload := wire.MustEncode(&wire.Message{
		Op: wire.OpReadAck, Key: "k", TS: 2, RCounter: 1,
		Cur: types.Value("cur"), Prev: types.Value("prev"), WriterSig: []byte("sig"),
	})
	deliver := func() { p.Deliver(transport.Message{From: types.Server(1), Payload: payload}) }
	deliver()
	if s := &p.scratch; s.Cur != nil || s.Prev != nil || s.WriterSig != nil {
		t.Errorf("scratch still aliases the payload: cur=%q prev=%q sig=%q", s.Cur, s.Prev, s.WriterSig)
	}
	if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
		t.Errorf("delivering an unmatched ack allocates %v times, want 0", allocs)
	}
}

func TestPipelineDepthBlocksAcquire(t *testing.T) {
	client, servers := pipeNet(t, 1)
	p := NewPipeline(client, 1, nil)
	ctx := context.Background()

	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	p.Register(1, rcFilter(7), func([]Ack, error) { close(done) })

	// The depth-1 pipeline is full: a bounded Acquire must time out.
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := p.Acquire(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire at depth = %v, want DeadlineExceeded", err)
	}
	// Completion frees the slot.
	ackFrom(t, servers[0], 7, 0)
	<-done
	acquireCtx, cancel2 := context.WithTimeout(ctx, 5*time.Second)
	defer cancel2()
	if err := p.Acquire(acquireCtx); err != nil {
		t.Fatalf("Acquire after completion: %v", err)
	}
}

func TestPipelineAbortIsolatesSiblings(t *testing.T) {
	client, servers := pipeNet(t, 1)
	p := NewPipeline(client, 4, nil)
	ctx := context.Background()

	var abortedErr atomic.Value
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	victim := p.Register(1, rcFilter(1), func(_ []Ack, err error) { abortedErr.Store(err) })

	survivorDone := make(chan error, 1)
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	p.Register(1, rcFilter(2), func(_ []Ack, err error) { survivorDone <- err })

	boom := errors.New("cancelled")
	victim.Abort(boom)
	victim.Abort(boom) // idempotent
	if got := abortedErr.Load(); got == nil || !errors.Is(got.(error), boom) {
		t.Fatalf("victim resolved with %v, want the abort error", got)
	}
	// The sibling still completes on its own ack.
	ackFrom(t, servers[0], 2, 0)
	select {
	case err := <-survivorDone:
		if err != nil {
			t.Fatalf("sibling failed after sibling abort: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling starved after sibling abort")
	}
	// The victim's slot was released: the pipeline still has full depth.
	for i := 0; i < p.Depth(); i++ {
		acquireCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		if err := p.Acquire(acquireCtx); err != nil {
			cancel()
			t.Fatalf("slot %d not recoverable after abort: %v", i, err)
		}
		cancel()
	}
}

func TestPipelineInboxCloseFailsPendingOps(t *testing.T) {
	client, _ := pipeNet(t, 1)
	p := NewPipeline(client, 4, nil)
	ctx := context.Background()

	errs := make(chan error, 2)
	for rc := int64(1); rc <= 2; rc++ {
		if err := p.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		p.Register(1, rcFilter(rc), func(_ []Ack, err error) { errs <- err })
	}
	_ = client.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrInboxClosed) {
				t.Fatalf("pending op resolved with %v, want ErrInboxClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending op never failed after inbox close")
		}
	}
	// Late submissions fail too (asynchronously but promptly).
	if err := p.Acquire(ctx); !errors.Is(err, ErrInboxClosed) {
		// A free slot may win the select race; registration still fails.
		if err != nil {
			t.Fatalf("Acquire on dead pipeline: %v", err)
		}
		p.Register(1, rcFilter(9), func(_ []Ack, err error) { errs <- err })
		select {
		case err := <-errs:
			if !errors.Is(err, ErrInboxClosed) {
				t.Fatalf("late op resolved with %v, want ErrInboxClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("late op never failed")
		}
	}
}

// TestFutureCtxAbortBeforeBind pins the round-boundary race: a context that
// fires before (re)binding must abort the round bound afterwards.
func TestFutureCtxAbortBeforeBind(t *testing.T) {
	client, _ := pipeNet(t, 1)
	p := NewPipeline(client, 4, nil)

	f := newFuture[int]()
	ctx, cancel := context.WithCancel(context.Background())

	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	op1 := p.Register(1, rcFilter(1), func(_ []Ack, err error) {
		if err != nil {
			f.Resolve(0, err)
		}
	})
	f.bind(ctx, round{op: op1})
	cancel() // aborts op1, resolving the future

	if _, err := f.Result(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("future resolved with %v, want context.Canceled", err)
	}

	// Rebind after a cancellation must abort the new round immediately.
	f2 := newFuture[int]()
	ctx2, cancel2 := context.WithCancel(context.Background())
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	opA := p.Register(1, rcFilter(2), func(_ []Ack, err error) {
		if err != nil {
			f2.Resolve(0, err)
		}
	})
	f2.bind(ctx2, round{op: opA})
	cancel2()
	<-f2.Done()
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resolved := make(chan error, 1)
	opB := p.Register(1, rcFilter(3), func(_ []Ack, err error) { resolved <- err })
	f2.rebind(round{op: opB}) // the sticky cancellation must abort opB
	select {
	case err := <-resolved:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rebound op resolved with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rebound op not aborted by sticky cancellation")
	}
}

func TestPipelineDepthClamped(t *testing.T) {
	client, _ := pipeNet(t, 1)
	if got := NewPipeline(client, MaxPipelineDepth*4, nil).Depth(); got != MaxPipelineDepth {
		t.Fatalf("Depth = %d, want clamped to %d", got, MaxPipelineDepth)
	}
	if got := NewPipeline(client, 0, nil).Depth(); got != DefaultPipelineDepth {
		t.Fatalf("Depth = %d, want default %d", got, DefaultPipelineDepth)
	}
}

// TestFutureAbortsWithOrWithoutArmedContext: a submission whose context can
// never end (context.Background) arms no callback, yet waiting for its result
// under another context still aborts exactly that operation; a submission
// under a cancellable context is still aborted by that context alone; and a
// sibling submitted beside both completes untouched.
func TestFutureAbortsWithOrWithoutArmedContext(t *testing.T) {
	client, servers := pipeNet(t, 1)
	cl, err := NewClient(ClientConfig{Quorum: quorum.Config{Servers: 1}, Depth: 4}, client, Rounds[int64]{
		Name: "test read", Role: types.RoleReader, Need: 1,
		Begin: Ask[int64](wire.OpRead, ""),
		Finish: func(c *Call[int64], acks []Ack) (bool, error) {
			c.Result = acks[0].Msg.RCounter
			return false, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	background := context.Background()
	cancellable, cancel := context.WithCancel(background)
	defer cancel()

	waited, err1 := cl.Submit(background, nil)   // rc 1: aborted through Result's context
	armed, err2 := cl.Submit(cancellable, nil)   // rc 2: aborted through its own context
	survivor, err3 := cl.Submit(background, nil) // rc 3: completes
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	if waited.stop != nil || survivor.stop != nil {
		t.Error("a context that cannot end was armed with a callback")
	}
	if armed.stop == nil {
		t.Error("a cancellable context was not armed")
	}

	gone, stop := context.WithCancel(background)
	stop()
	if _, err := waited.Result(gone); !errors.Is(err, context.Canceled) {
		t.Errorf("Result under an ended context returned %v, want context.Canceled", err)
	}
	cancel()
	select {
	case <-armed.Done():
		if _, err := armed.Result(background); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled submission resolved with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the submission's context did not abort it")
	}
	select {
	case <-survivor.Done():
		t.Fatal("aborting two operations resolved their sibling")
	default:
	}
	ackFrom(t, servers[0], 3, 0)
	timeout, stopTimeout := context.WithTimeout(background, 5*time.Second)
	defer stopTimeout()
	if rc, err := survivor.Result(timeout); err != nil || rc != 3 {
		t.Fatalf("sibling resolved with (%d, %v), want (3, nil)", rc, err)
	}
}
