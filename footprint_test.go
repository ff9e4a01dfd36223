package fastread

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fastread/internal/protoutil"
)

// settledGoroutines returns the process's goroutine count once it has reached
// want — or, for a negative want, once it has stopped changing: goroutines
// that were told to stop take a moment to be gone.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 400 && n != want; i++ {
		time.Sleep(5 * time.Millisecond)
		prev := n
		if n = runtime.NumGoroutine(); want < 0 && n == prev {
			break
		}
	}
	return n
}

// registerKeys registers keys prefix0..prefix(n-1) and returns the registers.
func registerKeys(t *testing.T, s *Store, prefix string, n int) []*Register {
	t.Helper()
	regs := make([]*Register, n)
	for i := range regs {
		reg, err := s.Register(fmt.Sprintf("%s%d", prefix, i))
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}
	return regs
}

// touch writes and reads one register.
func touch(ctx context.Context, t *testing.T, reg *Register) {
	t.Helper()
	if err := reg.Writer().Write(ctx, []byte(reg.Key())); err != nil {
		t.Fatal(err)
	}
	if res, err := reg.Readers()[0].Read(ctx); err != nil || string(res.Value) != reg.Key() {
		t.Fatalf("read %q: %q, %v", reg.Key(), res.Value, err)
	}
}

// TestStoreGoroutineCensus is the arithmetic of "one queue and one wake-up
// per node": an idle in-memory store runs one goroutine per server (its
// executor) and one per client identity (its demux pump), and nothing per key.
// The rows workers=0 (the default) and workers=1 are both the one executor
// worker every server runs, so they build the same store and expect the same
// count.
func TestStoreGoroutineCensus(t *testing.T) {
	const servers, readers = 4, 1
	const want = servers + 1 + readers
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, workers := range []int{0, 1} {
		for _, keys := range []int{64, 4096} {
			t.Run(fmt.Sprintf("workers=%d/keys=%d", workers, keys), func(t *testing.T) {
				before := settledGoroutines(-1)
				s, err := NewStore(Config{Servers: servers, Faulty: 1, Readers: readers})
				if err != nil {
					t.Fatal(err)
				}
				regs := registerKeys(t, s, "census/", keys)
				touch(ctx, t, regs[0])
				touch(ctx, t, regs[keys-1])
				if got := settledGoroutines(before+want) - before; got != want {
					t.Errorf("an idle store with %d keys runs %d goroutines, want %d", keys, got, want)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if got := settledGoroutines(before); got != before {
					t.Errorf("%d goroutines outlive Close", got-before)
				}
			})
		}
	}
}

// TestStoreManyKeysFootprint is the per-key diet's acceptance test: 100 000
// registers on one in-memory deployment cost no goroutine and at most 4 KB of
// heap each (a route is a table entry, a handle its slots and pending
// operations), and registering them is linear.
func TestStoreManyKeysFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 100 000 keys")
	}
	const (
		few, many   = 64, 100_000
		perKeyLimit = 4 << 10
	)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, reg := range registerKeys(t, s, "few/", few) {
		touch(ctx, t, reg)
	}
	goroutines, heapFew := settledGoroutines(-1), heap()

	regs := registerKeys(t, s, "many/", many)
	for i := 0; i < many; i += 100 {
		touch(ctx, t, regs[i])
	}
	if got := settledGoroutines(goroutines); got != goroutines {
		t.Errorf("%d keys run %d goroutines, %d keys ran %d: a key must cost none", few+many, got, few, goroutines)
	}
	perKey := float64(heap()-heapFew) / many
	t.Logf("%.0f heap bytes per key, %v in all", perKey, time.Since(start).Round(time.Millisecond))
	if perKey > perKeyLimit {
		t.Errorf("a key costs %.0f heap bytes, want at most %d", perKey, perKeyLimit)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("took %v, want under 20s", took)
	}
}

// TestRestartReaderStorm restarts every reader of 8 keys 200 times while
// pipelined reads are in flight on all of them: a read caught by a restart
// fails with ErrInboxClosed or completes, none hangs or fails otherwise, and
// every last incarnation works.
func TestRestartReaderStorm(t *testing.T) {
	const keys, restarts, depth = 8, 200, 4
	s, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1, PipelineDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A read that hangs runs into this deadline and fails the test with it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	regs := registerKeys(t, s, "storm/", keys)
	for _, reg := range regs {
		touch(ctx, t, reg)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var completed, aborted [keys]int
	for k, reg := range regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := reg.Readers()[0]
			settle := func(f *ReadFuture, err error) {
				if err == nil {
					var res ReadResult
					if res, err = f.Result(ctx); err == nil && string(res.Value) != reg.Key() {
						t.Errorf("read %q returned %q", reg.Key(), res.Value)
					}
				}
				switch {
				case err == nil:
					completed[k]++
				case errors.Is(err, protoutil.ErrInboxClosed):
					aborted[k]++
				default:
					t.Errorf("read %q caught by a restart: %v", reg.Key(), err)
				}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var fs [depth]*ReadFuture
				var errs [depth]error
				for i := range fs {
					fs[i], errs[i] = rd.ReadAsync(ctx)
				}
				for i := range fs {
					settle(fs[i], errs[i])
				}
			}
		}()
	}
	for i := 0; i < restarts; i++ {
		for _, reg := range regs {
			if err := s.RestartReader(reg.Key(), 1); err != nil {
				t.Fatal(err)
			}
		}
		// Let some reads through, so restarts catch operations at every
		// stage and not only at submission.
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	sumCompleted, sumAborted := 0, 0
	for k, reg := range regs {
		sumCompleted, sumAborted = sumCompleted+completed[k], sumAborted+aborted[k]
		touch(ctx, t, reg)
	}
	t.Logf("%d reads completed, %d died with their incarnation", sumCompleted, sumAborted)
}
