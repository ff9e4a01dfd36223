package transport

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/types"
)

// execSeq extracts the per-key sequence number from a "key|seq" payload,
// returning -1 on a malformed payload. It runs on executor goroutines where
// t.Fatalf is invalid; the tests' ordering assertions flag the -1 sentinel
// on the test goroutine instead.
func execSeq(m Message) int {
	s := string(m.Payload)
	i := strings.IndexByte(s, '|')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return -1
	}
	return n
}

// waitUntil polls cond until it holds or the deadline passes. Closing a node
// discards messages still in flight, so tests wait for full delivery before
// shutting the executor down.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorRoutesUnkeyedMessages checks that a message carrying no key (an
// undecodable payload) still reaches the handler instead of vanishing — the
// handler owns the decision to drop.
func TestExecutorRoutesUnkeyedMessages(t *testing.T) {
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	client := mustJoin(t, net, types.Writer())

	var handled atomic.Int64
	exec := NewExecutor(server, nil, 0)
	var execDone sync.WaitGroup
	execDone.Add(1)
	go func() {
		defer execDone.Done()
		exec.RunCoalescing(func(Message, Sender) { handled.Add(1) })
	}()

	if err := client.Send(types.Server(1), "op", []byte("malformed-no-separator")); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitUntil(t, "unkeyed message handled", func() bool { return handled.Load() == 1 })
	if err := server.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	execDone.Wait()
}

// TestExecutorSingleWorkerInline checks the executor's one worker: messages
// are handled in delivery order and Run drains on close.
func TestExecutorSingleWorkerInline(t *testing.T) {
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	client := mustJoin(t, net, types.Writer())

	exec := NewExecutor(server, nil, 0)
	var mu sync.Mutex
	var got []int
	var execDone sync.WaitGroup
	execDone.Add(1)
	go func() {
		defer execDone.Done()
		exec.RunCoalescing(func(m Message, _ Sender) {
			mu.Lock()
			got = append(got, execSeq(m))
			mu.Unlock()
		})
	}()
	for i := 0; i < 100; i++ {
		if err := client.Send(types.Server(1), "op", []byte(fmt.Sprintf("k|%d", i))); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	waitUntil(t, "all messages handled", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 100
	})
	if err := server.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	execDone.Wait()
	for i, seq := range got {
		if seq != i {
			t.Fatalf("position %d got seq %d — FIFO violated", i, seq)
		}
	}
}

// TestMailboxPopAll: in steady state a queue's consumer allocates nothing.
// Each run's buffer, cleared, becomes the queue's next backing array, so runs
// ping-pong between two arrays. The consumer is parked in runEnd while the
// next run queues, so every run is exactly the pushed batch.
func TestMailboxPopAll(t *testing.T) {
	const perRun = 8
	q := NewQueue(0)
	gate, ended := make(chan struct{}), make(chan int)
	n := 0
	done := serveQueue(t, q, func(Message) { n++ }, func() {
		ended <- n
		n = 0
		<-gate
	})
	run := func() {
		for i := 0; i < perRun; i++ {
			q.Push(Message{Kind: "m"})
		}
		gate <- struct{}{}
		if got := <-ended; got != perRun {
			t.Fatalf("a run of %d messages, want %d", got, perRun)
		}
	}
	q.Push(Message{Kind: "first"})
	if got := <-ended; got != 1 {
		t.Fatalf("first run of %d messages, want 1", got)
	}
	run() // grow both arrays to a run's size
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("%.1f allocations per steady-state run, want 0", allocs)
	}
	q.Close()
	gate <- struct{}{}
	<-done
}

// TestExecutorRunEndHook pins SetRunEnd's contract: the hook runs at the end
// of every run, output or not; it runs BEFORE the run's output is flushed; and
// once it returns an error the output of that run — and of every later one it
// fails — is dropped. Payloads are "key|seq"; even seqs are echoed, odd ones
// are not. The one row is the executor's one worker.
func TestExecutorRunEndHook(t *testing.T) {
	t.Run("workers=1", runEndHook)
}

func runEndHook(t *testing.T) {
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	var (
		handled, ended, sends atomic.Int64
		failing               atomic.Bool
		unended               atomic.Int64 // handled by a run whose hook has not run yet
	)
	server := &sendHookNode{Node: mustJoin(t, net, types.Server(1)), before: func() {
		sends.Add(1)
		if unended.Load() != 0 {
			t.Errorf("output left with %d messages of the run not yet ended", unended.Load())
		}
	}}
	client := mustJoin(t, net, types.Writer())

	exec := NewExecutor(server, nil, 0)
	exec.SetRunEnd(func() error {
		unended.Store(0)
		ended.Add(1)
		if failing.Load() {
			return fmt.Errorf("log failed")
		}
		return nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		exec.RunCoalescing(func(m Message, out Sender) {
			unended.Add(1)
			if execSeq(m)%2 == 0 {
				_ = out.Send(m.From, "echo", m.Payload)
			}
			handled.Add(1)
		})
	}()
	send := func(seq int) {
		t.Helper()
		if err := client.Send(types.Server(1), "op", []byte(fmt.Sprintf("key-%d|%d", seq%5, seq))); err != nil {
			t.Fatal(err)
		}
	}

	// A run without output still ends through the hook.
	send(1)
	waitUntil(t, "the hook after an output-less run", func() bool { return ended.Load() == 1 })
	if sends.Load() != 0 {
		t.Fatalf("%d sends for a request that echoes nothing", sends.Load())
	}
	for seq := 2; seq <= 100; seq++ {
		send(seq)
	}
	// Once every echo has arrived, every run with output has ended.
	for echoes := 0; echoes < 50; {
		select {
		case m := <-client.Inbox():
			Expand(m, func(Message) { echoes++ })
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 50 echoes arrived", echoes)
		}
	}

	// From the first failing hook on, nothing is sent.
	failing.Store(true)
	before := sends.Load()
	for seq := 102; seq < 200; seq += 2 {
		send(seq)
	}
	waitUntil(t, "the failing runs handled", func() bool { return handled.Load() == 100+49 })
	_ = server.Close()
	<-done
	if got := sends.Load() - before; got != 0 {
		t.Errorf("%d sends after the hook began failing", got)
	}
}

// sendHookNode runs before ahead of every send, on the sending goroutine.
type sendHookNode struct {
	Node
	before func()
}

func (n *sendHookNode) Send(to types.ProcessID, kind string, payload []byte) error {
	n.before()
	return n.Node.Send(to, kind, payload)
}
