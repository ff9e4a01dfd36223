package transport_test

import (
	"context"
	"testing"
	"time"

	"fastread"
	"fastread/internal/types"
)

// TestDemuxRouteBoundExactShed pins where Config.RouteBound lives now that a
// route owns no queue: it bounds the in-memory mailbox of every CLIENT node of
// the deployment — the one place an acknowledgement backlog can sit — shedding
// the excess into Stats.ShedDrops, exactly, while the deployment's own handles
// keep working under the bound; without it nothing is ever shed.
func TestDemuxRouteBoundExactShed(t *testing.T) {
	const (
		bound = 8
		flood = 4096
	)
	for _, tc := range []struct {
		name       string
		routeBound int
		wantShed   int64
	}{
		{"bounded", bound, flood - bound},
		{"unbounded", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := fastread.NewStore(fastread.Config{Servers: 4, Faulty: 1, Readers: 1, RouteBound: tc.routeBound})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			net, err := store.Network()
			if err != nil {
				t.Fatal(err)
			}
			// A client identity of the same network that nobody consumes: its
			// mailbox holds whatever the bound lets in, so the count is exact.
			idle, err := net.Join(types.Reader(2))
			if err != nil {
				t.Fatal(err)
			}
			src, err := net.Join(types.Server(5))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < flood; i++ {
				if err := src.Send(idle.ID(), "ack", []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if got := store.Stats().ShedDrops; got != tc.wantShed {
				t.Fatalf("ShedDrops = %d after %d deliveries at a client mailbox bounded to %d, want %d", got, flood, tc.routeBound, tc.wantShed)
			}

			// The deployment's own reader and writer sit behind the same bound
			// and still complete: a serial operation never has more than S
			// acknowledgements queued.
			reg, err := store.Register("k")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
				t.Fatal(err)
			}
			rd, err := reg.Reader(1)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := rd.Read(ctx); err != nil || string(res.Value) != "v" {
				t.Fatalf("read under the bound: %q, %v", res.Value, err)
			}
			if got := store.Stats().ShedDrops; got != tc.wantShed {
				t.Fatalf("serial operations shed: ShedDrops %d, want %d", got, tc.wantShed)
			}
		})
	}
}
