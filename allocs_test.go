package fastread

import (
	"context"
	"testing"
)

// raceEnabled is set by race_test.go in race builds.
var raceEnabled bool

// TestSerialOpAllocBudget pins what one blocking operation on an in-memory
// S=4 store allocates, servers and transport included (AllocsPerRun counts the
// whole process). The budgets are the counts this tree measures, so any new
// allocation on the serial path fails here before a benchmark has to find it.
// Race builds drop pooled items at random, so it is skipped there.
func TestSerialOpAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds do not keep what sync.Pool is given")
	}
	s, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, err := s.Register("alloc-budget")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, r := reg.Writer(), reg.Readers()[0]
	value := make([]byte, 128)
	for i := 0; i < 256; i++ { // warm the pools, the handles and the servers' per-key state
		if err := w.Write(ctx, value); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(ctx); err != nil {
			t.Fatal(err)
		}
	}
	writes := testing.AllocsPerRun(2000, func() {
		if err := w.Write(ctx, value); err != nil {
			t.Fatal(err)
		}
	})
	reads := testing.AllocsPerRun(2000, func() {
		if _, err := r.Read(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per blocking operation: write %.0f, read %.0f", writes, reads)
	// What is left is what the operation returns or keeps: the writer's
	// owned copy of the value, or the read's result value. Requests and
	// acknowledgements travel in pooled arenas, the servers copy written
	// values into their registers' own buffers, the wait is on the pooled Call,
	// and each round runs on the handle's recycled pipeline Op.
	const writeBudget, readBudget = 1, 1
	if writes > writeBudget {
		t.Errorf("a blocking write allocates %.0f times, budget %d", writes, writeBudget)
	}
	if reads > readBudget {
		t.Errorf("a blocking read allocates %.0f times, budget %d", reads, readBudget)
	}
}

// TestRotatingKeysOpAllocBudget is TestSerialOpAllocBudget over 64 keys in
// turn, so consecutive requests at every server name different registers: a
// server must decode each request's key into the string its register already
// holds, not into a new one.
func TestRotatingKeysOpAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds do not keep what sync.Pool is given")
	}
	s, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	regs := registerKeys(t, s, "alloc-rotate/", 64)
	ws, rs := make([]Writer, len(regs)), make([]Reader, len(regs))
	for i, reg := range regs {
		ws[i], rs[i] = reg.Writer(), reg.Readers()[0]
	}
	ctx := context.Background()
	value := make([]byte, 128)
	for round := 0; round < 4; round++ { // warm every handle and every server's register
		for i := range regs {
			if err := ws[i].Write(ctx, value); err != nil {
				t.Fatal(err)
			}
			if _, err := rs[i].Read(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := 0
	writes := testing.AllocsPerRun(2000, func() {
		next = (next + 1) % len(ws)
		if err := ws[next].Write(ctx, value); err != nil {
			t.Fatal(err)
		}
	})
	reads := testing.AllocsPerRun(2000, func() {
		next = (next + 1) % len(rs)
		if _, err := rs[next].Read(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per blocking operation over %d keys: write %.2f, read %.2f", len(regs), writes, reads)
	const writeBudget, readBudget = 1, 1
	if writes > writeBudget {
		t.Errorf("a blocking write allocates %.2f times, budget %d", writes, writeBudget)
	}
	if reads > readBudget {
		t.Errorf("a blocking read allocates %.2f times, budget %d", reads, readBudget)
	}
}

// TestWideQuorumReadAllocBudget pins a blocking read at S=19, R=16, where a
// round needs 18 acknowledgements: the pipeline Op keeps an ack buffer sized
// to the quorum, so a wide round allocates no more than a narrow one.
func TestWideQuorumReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds do not keep what sync.Pool is given")
	}
	s, err := NewStore(Config{Servers: 19, Faulty: 1, Readers: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, err := s.Register("alloc-wide")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := reg.Writer().Write(ctx, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	r := reg.Readers()[15]
	for i := 0; i < 256; i++ {
		if _, err := r.Read(ctx); err != nil {
			t.Fatal(err)
		}
	}
	reads := testing.AllocsPerRun(1000, func() {
		if _, err := r.Read(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per blocking read at S=19, R=16: %.2f", reads)
	const readBudget = 1
	if reads > readBudget {
		t.Errorf("a blocking read allocates %.2f times, budget %d", reads, readBudget)
	}
}
