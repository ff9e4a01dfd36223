package fastread

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func registerRange(t *testing.T, store *Store, n int) []*Register {
	t.Helper()
	regs := make([]*Register, n)
	for i := range regs {
		reg, err := store.Register(fmt.Sprintf("load-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}
	return regs
}

// TestOverloadShedDropsAccounted forces a server-side queue overflow and
// checks the ShedDrops counter moves while every submitted operation still
// resolves — either completing (its quorum formed from the copies that were
// admitted) or failing its own deadline. Four writer handles burst
// signature-verified writes at five bound-8 server mailboxes; verification
// makes the drain genuinely slower than the arrival, so the overflow is not
// a timing accident.
func TestOverloadShedDropsAccounted(t *testing.T) {
	if testing.Short() {
		t.Skip("deadline drain takes a few seconds")
	}
	const (
		keys     = 4
		perKey   = 32
		bound    = 8
		deadline = 3 * time.Second
	)
	store, err := NewStore(Config{
		Servers:       8,
		Faulty:        1,
		Malicious:     1,
		Readers:       1,
		Protocol:      ProtocolFastByzantine,
		PipelineDepth: perKey,
		QueueBound:    bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	regs := registerRange(t, store, keys)

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		errored   atomic.Int64
	)
	for _, reg := range regs {
		wg.Add(1)
		go func(w Writer) {
			defer wg.Done()
			futures := make([]*WriteFuture, 0, perKey)
			for i := 0; i < perKey; i++ {
				wf, err := w.WriteAsync(ctx, []byte(fmt.Sprintf("burst-%d", i)))
				if err != nil {
					errored.Add(1)
					continue
				}
				futures = append(futures, wf)
			}
			for _, wf := range futures {
				if err := wf.Result(ctx); err != nil {
					errored.Add(1)
				} else {
					completed.Add(1)
				}
			}
		}(reg.Writer())
	}
	wg.Wait()

	total := completed.Load() + errored.Load()
	if total != keys*perKey {
		t.Errorf("per-op accounting leak: %d submitted but %d resolved", keys*perKey, total)
	}
	if completed.Load() == 0 {
		t.Error("overload wedged the deployment: no write completed at all")
	}
	st := store.Stats()
	t.Logf("burst: completed=%d errored=%d shedDrops=%d highWater=%d",
		completed.Load(), errored.Load(), st.ShedDrops, st.MailboxHighWater)
	if st.ShedDrops == 0 {
		t.Error("expected bounded server mailboxes to shed under the burst, got ShedDrops == 0")
	}
}
