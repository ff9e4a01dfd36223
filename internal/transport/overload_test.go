package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fastread/internal/types"
)

// The overload tests pin the EXACT shed accounting the acceptance criteria
// demand: with a bound of B and K pushes into a held consumer, exactly
// max(0, K-capacity) messages are shed and counted — never one more (lost
// silently) or one fewer (queued past the bound).

func TestBoundedMailboxExactShed(t *testing.T) {
	const (
		bound = 8
		K     = 100
	)
	var shed atomic.Int64
	m := newBoundedMailbox(bound, &shed)
	accepted := 0
	for i := 0; i < K; i++ {
		if m.push(Message{}) {
			accepted++
		}
	}
	if accepted != bound {
		t.Fatalf("accepted %d, want exactly bound %d", accepted, bound)
	}
	if got := shed.Load(); got != K-bound {
		t.Fatalf("shed %d, want exactly %d", got, K-bound)
	}
	if hw := m.highWater(); hw > bound {
		t.Fatalf("high-water %d exceeds bound %d", hw, bound)
	}
	if m.len() != bound {
		t.Fatalf("queued %d, want %d", m.len(), bound)
	}
	// Draining frees capacity: the next push is admitted again.
	if _, ok := m.pop(); !ok {
		t.Fatal("pop failed")
	}
	if !m.push(Message{}) {
		t.Fatal("push after drain should be admitted")
	}
	if got := shed.Load(); got != K-bound {
		t.Fatalf("admitted push bumped shed to %d", got)
	}
}

func TestBoundedMailboxConcurrentExactShed(t *testing.T) {
	const (
		bound     = 32
		producers = 8
		perProd   = 500
	)
	var shed atomic.Int64
	m := newBoundedMailbox(bound, &shed)
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if m.push(Message{}) {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	total := int64(producers * perProd)
	if accepted.Load()+shed.Load() != total {
		t.Fatalf("accounting leak: accepted %d + shed %d != %d", accepted.Load(), shed.Load(), total)
	}
	if accepted.Load() != bound {
		t.Fatalf("accepted %d with a held consumer, want exactly bound %d", accepted.Load(), bound)
	}
	if hw := m.highWater(); hw > bound {
		t.Fatalf("high-water %d exceeds bound %d", hw, bound)
	}
}

func TestUnboundedMailboxNeverSheds(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 10*ringCapacity; i++ {
		if !m.push(Message{}) {
			t.Fatal("unbounded mailbox rejected a push")
		}
	}
	if m.len() != 10*ringCapacity {
		t.Fatalf("queued %d, want %d", m.len(), 10*ringCapacity)
	}
}

func TestBoundedHandoffExactShed(t *testing.T) {
	const (
		bound = 16
		K     = 2000 // >> ringCapacity + bound
	)
	var shed atomic.Int64
	h := newHandoff()
	h.spill.bound, h.spill.shed = bound, &shed
	accepted := 0
	for i := 0; i < K; i++ {
		if h.push(Message{}) {
			accepted++
		}
	}
	// Total queued capacity is the ring plus the bounded spill.
	wantAccepted := ringCapacity + bound
	if accepted != wantAccepted {
		t.Fatalf("accepted %d, want exactly ring(%d)+bound(%d)=%d", accepted, ringCapacity, bound, wantAccepted)
	}
	if got := shed.Load(); got != int64(K-wantAccepted) {
		t.Fatalf("shed %d, want exactly %d", got, K-wantAccepted)
	}
	// Every accepted message is delivered in order once a consumer drains;
	// FIFO across the ring/spill boundary is unchanged by the bound.
	delivered := 0
	done := make(chan struct{})
	go func() {
		h.drain(func(Message) { delivered++ })
		close(done)
	}()
	h.close()
	<-done
	if delivered != wantAccepted {
		t.Fatalf("delivered %d, want %d", delivered, wantAccepted)
	}
}

func nodeMust(t *testing.T, net *InMemNetwork, id types.ProcessID) Node {
	t.Helper()
	n, err := net.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInMemMailboxBoundKeepsHighWaterUnderBound(t *testing.T) {
	const bound = 64
	net := NewInMemNetwork(WithMailboxBound(bound))
	defer net.Close()
	srv := nodeMust(t, net, types.ProcessID{Role: types.RoleServer, Index: 1})
	wrt := nodeMust(t, net, types.ProcessID{Role: types.RoleWriter, Index: 0})
	// Do NOT read srv's inbox: the server pump moves at most a handful of
	// messages out of the mailbox into the channel hand-off; the rest queue
	// until the bound, then shed.
	const K = 5000
	for i := 0; i < K; i++ {
		if err := wrt.Send(srv.ID(), "msg", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if hw := net.MailboxHighWater(); hw > bound {
		t.Fatalf("mailbox high-water %d exceeds bound %d", hw, bound)
	}
	if net.MailboxShed() == 0 {
		t.Fatal("expected sheds on a bounded mailbox with a held consumer")
	}
	// Client mailboxes stay unbounded: a reply storm at the writer must not
	// shed acks. Sending server->writer cannot shed regardless of volume.
	before := net.MailboxShed()
	for i := 0; i < K; i++ {
		if err := srv.Send(wrt.ID(), "ack", []byte("ack")); err != nil {
			t.Fatal(err)
		}
	}
	if net.MailboxShed() != before {
		t.Fatal("client-side mailbox shed messages; bound must only apply to servers")
	}
}

func TestExecutorQueueBoundExactShed(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	srv := nodeMust(t, net, types.ProcessID{Role: types.RoleServer, Index: 1})
	e := NewExecutor(srv, func(m Message) ([]byte, bool) { return m.Payload, true }, 2)
	const bound = 4
	e.SetQueueBound(bound)
	// Push straight at one worker's handoff (all to the same key = same
	// worker); the worker is not running, so capacity is ring + bound.
	h := e.workers[0]
	accepted := 0
	const K = 1000
	for i := 0; i < K; i++ {
		if h.push(Message{}) {
			accepted++
		}
	}
	want := ringCapacity + bound
	if accepted != want {
		t.Fatalf("accepted %d, want %d", accepted, want)
	}
	if e.Sheds() != int64(K-want) {
		t.Fatalf("executor sheds %d, want %d", e.Sheds(), K-want)
	}
}
