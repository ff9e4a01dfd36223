package transport

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/shard"
	"fastread/internal/types"
)

// execKeyFunc routes by the payload prefix before '|' (payloads look like
// "key|seq"), mirroring how the real servers route by the wire key.
func execKeyFunc(m Message) ([]byte, bool) {
	i := bytes.IndexByte(m.Payload, '|')
	if i < 0 {
		return nil, false
	}
	return m.Payload[:i], true
}

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

// distinctShards returns keys from the candidates that land on pairwise
// distinct workers, to guarantee the FIFO test actually crosses workers.
func distinctShards(candidates []string, workers, want int) []string {
	used := make(map[uint64]bool)
	var out []string
	for _, k := range candidates {
		s := shard.Hash(k) % uint64(workers)
		if used[s] {
			continue
		}
		used[s] = true
		out = append(out, k)
		if len(out) == want {
			break
		}
	}
	return out
}

// TestExecutorPerKeyFIFO interleaves sends on several keys that hash to
// different workers and asserts every key's messages are handled in send
// order, while messages overall execute on multiple workers. Run under -race
// this also checks the dispatch/worker handoff for data races.
func TestExecutorPerKeyFIFO(t *testing.T) {
	const workers = 4
	const perKey = 500

	candidates := make([]string, 64)
	for i := range candidates {
		candidates[i] = fmt.Sprintf("key-%d", i)
	}
	keys := distinctShards(candidates, workers, 3)
	if len(keys) < 2 {
		t.Fatalf("could not find keys on distinct workers (got %d)", len(keys))
	}

	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	client := mustJoin(t, net, types.Writer())

	var mu sync.Mutex
	seqs := make(map[string][]int)
	exec := NewExecutor(server, execKeyFunc, workers)
	var execDone sync.WaitGroup
	execDone.Add(1)
	go func() {
		defer execDone.Done()
		exec.RunCoalescing(func(m Message, _ Sender) {
			key, _ := execKeyFunc(m)
			mu.Lock()
			seqs[string(key)] = append(seqs[string(key)], execSeq(m))
			mu.Unlock()
		})
	}()

	// One sender interleaves the keys round-robin, so consecutive messages
	// for one key always have other keys' messages between them.
	for seq := 0; seq < perKey; seq++ {
		for _, key := range keys {
			payload := []byte(fmt.Sprintf("%s|%d", key, seq))
			if err := client.Send(types.Server(1), "op", payload); err != nil {
				t.Fatalf("send %s/%d: %v", key, seq, err)
			}
		}
	}

	// The in-memory network delivers reliably, so every message is handled
	// eventually; wait for that, then stop the executor.
	waitUntil(t, "all messages handled", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, key := range keys {
			if len(seqs[key]) != perKey {
				return false
			}
		}
		return true
	})
	if err := server.Close(); err != nil {
		t.Fatalf("close server node: %v", err)
	}
	execDone.Wait()

	for _, key := range keys {
		got := seqs[key]
		if len(got) != perKey {
			t.Fatalf("key %s: handled %d messages, want %d", key, len(got), perKey)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("key %s: position %d got seq %d — per-key FIFO violated", key, i, seq)
			}
		}
	}
}

// TestExecutorDrainsOnStop floods the executor across many keys and checks
// that every message is handled exactly once and that Run returns after the
// node closes with all workers drained.
func TestExecutorDrainsOnStop(t *testing.T) {
	const total = 2000
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	client := mustJoin(t, net, types.Writer())

	var handled atomic.Int64
	exec := NewExecutor(server, execKeyFunc, 4)
	var execDone sync.WaitGroup
	execDone.Add(1)
	go func() {
		defer execDone.Done()
		exec.RunCoalescing(func(Message, Sender) { handled.Add(1) })
	}()

	for i := 0; i < total; i++ {
		payload := []byte(fmt.Sprintf("key-%d|%d", i%17, i))
		if err := client.Send(types.Server(1), "op", payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitUntil(t, "all messages handled", func() bool { return handled.Load() == total })
	if err := server.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	execDone.Wait()
	if n := handled.Load(); n != total {
		t.Fatalf("handled %d messages, want %d", n, total)
	}
}

// TestExecutorRoutesUnkeyedMessages checks that a message whose key cannot be
// extracted still reaches the handler (on worker 0) instead of vanishing —
// the handler owns the decision to drop.
func TestExecutorRoutesUnkeyedMessages(t *testing.T) {
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	client := mustJoin(t, net, types.Writer())

	var handled atomic.Int64
	exec := NewExecutor(server, execKeyFunc, 4)
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

// TestExecutorSingleWorkerInline checks the one-worker default — what any
// worker count up to 1 builds, whatever GOMAXPROCS is: handling still works
// and Run still drains on close.
func TestExecutorSingleWorkerInline(t *testing.T) {
	net := NewInMemNetwork()
	defer func() { _ = net.Close() }()
	server := mustJoin(t, net, types.Server(1))
	client := mustJoin(t, net, types.Writer())

	for _, workers := range []int{-1, 1} {
		if got := NewExecutor(server, execKeyFunc, workers).Workers(); got != 1 {
			t.Errorf("NewExecutor(…, %d).Workers() = %d, want 1", workers, got)
		}
	}
	exec := NewExecutor(server, execKeyFunc, 0)
	if exec.Workers() != 1 {
		t.Fatalf("NewExecutor(…, 0).Workers() = %d, want 1", exec.Workers())
	}
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

// TestMailboxPopAll exercises the batched pop: it takes the whole queue in
// one call, recycles the handed-back buffer, and reports closure only after
// the queue is drained.
func TestMailboxPopAll(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 5; i++ {
		if !m.push(Message{Kind: fmt.Sprintf("m%d", i)}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	batch, ok := m.popAll(nil)
	if !ok || len(batch) != 5 {
		t.Fatalf("popAll = %d msgs, ok=%v; want 5, true", len(batch), ok)
	}
	for i := range batch {
		if want := fmt.Sprintf("m%d", i); batch[i].Kind != want {
			t.Fatalf("batch[%d] = %q, want %q", i, batch[i].Kind, want)
		}
		batch[i] = Message{}
	}

	// The cleared batch becomes the mailbox's next backing array: pushing
	// fewer messages than its capacity must not allocate a fresh one.
	if !m.push(Message{Kind: "again"}) {
		t.Fatal("push after popAll rejected")
	}
	second, ok := m.popAll(batch)
	if !ok || len(second) != 1 || second[0].Kind != "again" {
		t.Fatalf("second popAll = %v, ok=%v", second, ok)
	}

	// Close with messages queued: they must still drain before ok=false.
	m.push(Message{Kind: "last"})
	m.close()
	third, ok := m.popAll(nil)
	if !ok || len(third) != 1 || third[0].Kind != "last" {
		t.Fatalf("popAll after close = %v, ok=%v; want the queued message", third, ok)
	}
	if batch, ok := m.popAll(nil); ok {
		t.Fatalf("popAll on closed drained mailbox returned %v, want ok=false", batch)
	}
}

// TestExecutorRunEndHook pins SetRunEnd's contract on both run loops (one
// inline worker, four key-shard workers): the hook runs at the end of every
// run, output or not; it runs BEFORE the run's output is flushed; and once it
// returns an error the output of that run — and of every later one it fails —
// is dropped. Payloads are "key|seq"; even seqs are echoed, odd ones are not.
func TestExecutorRunEndHook(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net := NewInMemNetwork()
			defer func() { _ = net.Close() }()
			var (
				handled, ended, sends atomic.Int64
				failing               atomic.Bool
				unended               atomic.Int64 // handled by a run whose hook has not run yet
			)
			server := &sendHookNode{Node: mustJoin(t, net, types.Server(1)), before: func() {
				sends.Add(1)
				// Only the inline loop has one run open at a time; the shell's
				// ack-after-commit test orders the key-shard workers by LSN.
				if workers == 1 && unended.Load() != 0 {
					t.Errorf("output left with %d messages of the run not yet ended", unended.Load())
				}
			}}
			client := mustJoin(t, net, types.Writer())

			exec := NewExecutor(server, execKeyFunc, workers)
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
		})
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
