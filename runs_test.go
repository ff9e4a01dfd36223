package fastread

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSubmittersKeepNonceOrder: four goroutines share one in-memory
// reader handle at depth 16 and submit 10 000 reads between them. A server
// drops, unacknowledged, a read that arrives behind a higher rCounter from the
// same reader (Figure 2 line 26), so a handle whose requests could reach a
// server out of nonce order would starve reads, and with them its slots.
// Requests are enqueued under the handle's lock while the servers' runs are
// taken and delivered after it, so every read resolves.
func TestConcurrentSubmittersKeepNonceOrder(t *testing.T) {
	const submitters, perSubmitter, depth = 4, 2500, 16
	s, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1, PipelineDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, err := s.Register("order")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
	reader, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			futures := make([]*ReadFuture, 0, perSubmitter)
			for i := 0; i < perSubmitter; i++ {
				f, err := reader.ReadAsync(ctx)
				if err != nil {
					errs <- err
					return
				}
				futures = append(futures, f)
			}
			for _, f := range futures {
				if _, err := f.Result(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a read did not resolve within 10 s (a request reached a server out of nonce order): %v", err)
	}
}

// TestSerialWriteRunsEveryServer: on a log-less in-memory store a blocking
// write's broadcast runs every idle server on the caller's goroutine, so when
// the write returns all four servers have applied it, not only the three of
// its quorum.
func TestSerialWriteRunsEveryServer(t *testing.T) {
	const writes = 1000
	s, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, err := s.Register("complete")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	servers := s.groups[0].servers
	for i := 1; i <= writes; i++ {
		if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
			t.Fatal(err)
		}
		for j, srv := range servers {
			if got := srv.TotalMutations(); got != int64(i) {
				t.Fatalf("write %d returned with s%d at %d mutations, want %d", i, j+1, got, i)
			}
		}
	}
}
