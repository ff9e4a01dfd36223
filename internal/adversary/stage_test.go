package adversary

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fastread"
	"fastread/internal/history"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// TestStageFailureSurfaces: a stage step that fails becomes the stage's
// error, and the first failure sticks while every later step is a no-op —
// the contract that lets a script check once, at its end.
func TestStageFailureSurfaces(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	w := types.Writer()
	// staged deploys cfg on a fresh stage and returns its store, network and
	// a write invoker.
	staged := func(t *testing.T) (*stage, *fastread.Store, *transport.InMemNetwork, func(string) *operation) {
		st := newStage()
		store, net, err := st.deploy(cfg, ReaderPaper, nil)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := store.Register("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
		return st, store, net, func(v string) *operation {
			return invoke(st, w, history.OpWrite, types.Value(v),
				func() (writeFuture, error) {
					f, err := reg.Writer().WriteAsync(context.Background(), types.Value(v))
					return writeFuture{f}, err
				},
				func(struct{}) (types.Value, types.Timestamp) { return nil, 1 })
		}
	}

	t.Run("refused submission", func(t *testing.T) {
		st, store, _, write := staged(t)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		write("after close")
		if !errors.Is(st.err, fastread.ErrStoreClosed) {
			t.Fatalf("stage error = %v, want ErrStoreClosed", st.err)
		}
	})

	t.Run("operation that never completes", func(t *testing.T) {
		st, store, net, write := staged(t)
		defer store.Close()
		toward(net.Hold, w, protoutil.ServerIDs(cfg.Servers))
		st.complete(write("held"), "the held write")
		first := st.err
		if first == nil || !strings.Contains(first.Error(), "the held write did not complete") {
			t.Fatalf("stage error = %v, want the held write's", first)
		}
		st.narrate("after the failure")
		if op := write("later"); op.id != 0 || st.err != first || len(st.narrative) != 0 {
			t.Errorf("steps after the failure ran: op %d, error %v, narrative %q", op.id, st.err, st.narrative)
		}
	})
}
