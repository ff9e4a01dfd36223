package protoutil

import (
	"context"
	"sync"
	"testing"
	"time"

	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// rcClient is a one-server engine client whose reads need one ack and resolve
// with the rCounter it echoes; its first operation carries rc 1.
func rcClient(t *testing.T, node transport.Node, depth int) *Client[int64] {
	t.Helper()
	cl, err := NewClient(ClientConfig{Quorum: quorum.Config{Servers: 1}, Depth: depth}, node, Rounds[int64]{
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
	return cl
}

// recycledOp waits until the pipeline's free list holds a finished Op and
// returns it: the Op the handle's next round will run on.
func recycledOp(t *testing.T, p *Pipeline) *Op {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		var op *Op
		if n := len(p.free); n > 0 {
			op = p.free[n-1]
		}
		p.mu.Unlock()
		if op != nil {
			return op
		}
		if time.Now().After(deadline) {
			t.Fatal("no finished Op was recycled")
		}
	}
}

// TestRecycledRoundFutureAbortsMissTheNextOp: an async operation completes
// and the handle's next operation runs on its recycled Op. Cancelling the
// first future's context, waiting for its Result under an ended context, and
// an abort that read the first future's round before it resolved and arrives
// only now must all leave the second operation alone: it resolves with its
// own value.
func TestRecycledRoundFutureAbortsMissTheNextOp(t *testing.T) {
	client, servers := pipeNet(t, 1)
	cl := rcClient(t, client, 4)
	background := context.Background()
	timeout, stopTimeout := context.WithTimeout(background, 5*time.Second)
	defer stopTimeout()

	firstCtx, cancelFirst := context.WithCancel(background)
	defer cancelFirst()
	first, err := cl.Submit(firstCtx, nil) // rc 1
	if err != nil {
		t.Fatal(err)
	}
	ackFrom(t, servers[0], 1, 0)
	if rc, err := first.Result(timeout); err != nil || rc != 1 {
		t.Fatalf("first resolved with (%d, %v), want (1, nil)", rc, err)
	}
	op := recycledOp(t, cl.pl)
	second, err := cl.Submit(background, nil) // rc 2
	if err != nil {
		t.Fatal(err)
	}
	first.mu.Lock()
	late := first.op
	first.mu.Unlock()
	second.mu.Lock()
	reused := second.op.op == op && late.op == op
	second.mu.Unlock()
	if !reused {
		t.Fatal("the second operation did not run on the first one's recycled Op")
	}

	cancelFirst()
	gone, stop := context.WithCancel(background)
	stop()
	if rc, err := first.Result(gone); err != nil || rc != 1 {
		t.Errorf("first's Result under an ended context = (%d, %v), want its own (1, nil)", rc, err)
	}
	late.abort(context.Canceled)
	select {
	case <-second.Done():
		t.Fatal("aborting the first operation's round resolved the second operation")
	default:
	}
	ackFrom(t, servers[0], 2, 0)
	if rc, err := second.Result(timeout); err != nil || rc != 2 {
		t.Fatalf("second resolved with (%d, %v), want (2, nil)", rc, err)
	}
}

// gatedCtx is a context whose Done the test closes and whose Err, once Done
// is closed, blocks until the gate opens: it holds a blocking Do between
// noticing that its context ended and aborting its round.
type gatedCtx struct {
	context.Context
	done  chan struct{}
	asked chan struct{} // closed by the first Err after done
	gate  chan struct{}
	once  sync.Once
}

func newGatedCtx() *gatedCtx {
	return &gatedCtx{Context: context.Background(), done: make(chan struct{}), asked: make(chan struct{}), gate: make(chan struct{})}
}

func (c *gatedCtx) Done() <-chan struct{} { return c.done }

func (c *gatedCtx) Err() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.once.Do(func() { close(c.asked) })
	<-c.gate
	return context.Canceled
}

// TestRecycledRoundBlockingAbortSparesSibling: a blocking Do's context ends
// just as its round completes. By the time the Do aborts the round it was
// waiting on, that round's Op has been recycled and runs a sibling Submit on
// the same handle: the abort must not reach the sibling, and the Do returns
// its own completed result.
func TestRecycledRoundBlockingAbortSparesSibling(t *testing.T) {
	client, servers := pipeNet(t, 1)
	cl := rcClient(t, client, 2)
	background := context.Background()
	timeout, stopTimeout := context.WithTimeout(background, 5*time.Second)
	defer stopTimeout()

	type outcome struct {
		rc  int64
		err error
	}
	ctx := newGatedCtx()
	doDone := make(chan outcome, 1)
	go func() {
		rc, err := cl.Do(ctx, nil) // rc 1
		doDone <- outcome{rc, err}
	}()
	close(ctx.done)
	select {
	case <-ctx.asked: // the Do saw its context end and is about to abort
	case <-time.After(5 * time.Second):
		t.Fatal("the blocking Do never noticed its context ending")
	}
	ackFrom(t, servers[0], 1, 0)
	op := recycledOp(t, cl.pl)
	sibling, err := cl.Submit(background, nil) // rc 2
	if err != nil {
		t.Fatal(err)
	}
	sibling.mu.Lock()
	reused := sibling.op.op == op
	sibling.mu.Unlock()
	if !reused {
		t.Fatal("the sibling did not run on the Do's recycled Op")
	}

	close(ctx.gate)
	select {
	case got := <-doDone:
		if got.err != nil || got.rc != 1 {
			t.Errorf("Do = (%d, %v), want its completed (1, nil)", got.rc, got.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the blocking Do did not return")
	}
	select {
	case <-sibling.Done():
		_, err := sibling.Result(background)
		t.Fatalf("the Do's abort resolved its sibling: %v", err)
	default:
	}
	ackFrom(t, servers[0], 2, 0)
	if rc, err := sibling.Result(timeout); err != nil || rc != 2 {
		t.Fatalf("sibling resolved with (%d, %v), want (2, nil)", rc, err)
	}
}
