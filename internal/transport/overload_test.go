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
	q := NewQueue(bound)
	accepted := 0
	for i := 0; i < K; i++ {
		if q.Push(Message{}) {
			accepted++
		}
	}
	if accepted != bound {
		t.Fatalf("accepted %d, want exactly bound %d", accepted, bound)
	}
	if got := q.Stats().InboundDrops; got != K-bound {
		t.Fatalf("shed %d, want exactly %d", got, K-bound)
	}
	if hw := q.Stats().MailboxHighWater; hw > bound {
		t.Fatalf("high-water %d exceeds bound %d", hw, bound)
	}
	if q.Len() != bound {
		t.Fatalf("queued %d, want %d", q.Len(), bound)
	}
	// Draining frees capacity: the next push is admitted again. The channel
	// side's pump has taken the queue off by the time its first message
	// arrives.
	<-q.Inbox()
	defer q.Close()
	if !q.Push(Message{}) {
		t.Fatal("push after drain should be admitted")
	}
	if got := q.Stats().InboundDrops; got != K-bound {
		t.Fatalf("admitted push bumped shed to %d", got)
	}
}

func TestBoundedMailboxConcurrentExactShed(t *testing.T) {
	const (
		bound     = 32
		producers = 8
		perProd   = 500
	)
	total := int64(producers * perProd)
	q := NewQueue(bound)
	var accepted atomic.Int64
	// A reader samples the counters while the producers push: the queue
	// counts under its own lock, so every snapshot is consistent.
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := q.Stats()
			seen := st.DeliveredMsgs + st.InboundDrops
			if seen < last || seen > total {
				t.Errorf("snapshot counted %d pushes after %d, of %d", seen, last, total)
				return
			}
			last = seen
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if q.Push(Message{}) {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-read
	if accepted.Load()+q.Stats().InboundDrops != total {
		t.Fatalf("accounting leak: accepted %d + shed %d != %d", accepted.Load(), q.Stats().InboundDrops, total)
	}
	if st := q.Stats(); st.DeliveredMsgs != accepted.Load() {
		t.Fatalf("queue counted %d admissions, producers saw %d", st.DeliveredMsgs, accepted.Load())
	}
	if accepted.Load() != bound {
		t.Fatalf("accepted %d with a held consumer, want exactly bound %d", accepted.Load(), bound)
	}
	if hw := q.Stats().MailboxHighWater; hw > bound {
		t.Fatalf("high-water %d exceeds bound %d", hw, bound)
	}
}

func TestUnboundedMailboxNeverSheds(t *testing.T) {
	q := NewQueue(0)
	const K = 2560
	for i := 0; i < K; i++ {
		if !q.Push(Message{}) {
			t.Fatal("unbounded queue rejected a push")
		}
	}
	if q.Len() != K {
		t.Fatalf("queued %d, want %d", q.Len(), K)
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
	// Do NOT consume srv: its messages queue until the bound, then shed.
	const K = 5000
	for i := 0; i < K; i++ {
		if err := wrt.Send(srv.ID(), "msg", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if hw := net.Stats().MailboxHighWater; hw > bound {
		t.Fatalf("mailbox high-water %d exceeds bound %d", hw, bound)
	}
	if net.Stats().ShedDrops == 0 {
		t.Fatal("expected sheds on a bounded mailbox with a held consumer")
	}
	// Every message sent was either admitted or shed, and counted once.
	if st := net.Stats(); st.DeliveredMsgs+st.ShedDrops != K {
		t.Fatalf("delivered %d + shed %d != %d sent", st.DeliveredMsgs, st.ShedDrops, K)
	}
	// Client mailboxes stay unbounded: a reply storm at the writer must not
	// shed acks. Sending server->writer cannot shed regardless of volume.
	before := net.Stats().ShedDrops
	for i := 0; i < K; i++ {
		if err := srv.Send(wrt.ID(), "ack", []byte("ack")); err != nil {
			t.Fatal(err)
		}
	}
	if net.Stats().ShedDrops != before {
		t.Fatal("client-side mailbox shed messages; bound must only apply to servers")
	}
}
