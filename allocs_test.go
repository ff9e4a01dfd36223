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
	// What is left: each operation's pipeline Op, plus the writer's owned
	// copy of the value or the read's result value. Requests and
	// acknowledgements travel in pooled arenas, the servers adopt written
	// values by pinning the request's arena, and the wait is on the pooled
	// Call.
	const writeBudget, readBudget = 2, 2
	if writes > writeBudget {
		t.Errorf("a blocking write allocates %.0f times, budget %d", writes, writeBudget)
	}
	if reads > readBudget {
		t.Errorf("a blocking read allocates %.0f times, budget %d", reads, readBudget)
	}
}
