package protoutil

import (
	"context"
	"errors"
	"testing"
	"time"

	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// TestSubmitCompletesInsideItsBroadcast: over log-less in-memory servers an
// async Submit's broadcast takes every idle server's run and delivers it once
// the handle's lock is released, so an operation whose quorum completes in
// those runs has resolved its future and freed its slot before Submit
// returns, and every server, not only the quorum, has applied it.
func TestSubmitCompletesInsideItsBroadcast(t *testing.T) {
	const key, ops = "k", 200
	net := transport.NewInMemNetwork()
	defer net.Close()
	servers := ServerIDs(4)
	vss := make([]*valueServer, len(servers))
	for i, id := range servers {
		vss[i] = startValueServer(t, net, id)
	}
	node, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	demux := transport.NewDemux(node, WireKeyFunc, 0)
	defer demux.Close()
	cl, err := NewClient(ClientConfig{Quorum: quorum.Config{Servers: len(servers)}, Key: key, Depth: 1}, demux.Route(key), Rounds[struct{}]{
		Name: "test write", Role: types.RoleWriter, Need: 3,
		Begin: func(c *Call[struct{}]) error {
			c.Req = wire.Message{Op: wire.OpWrite, Key: key, TS: types.Timestamp(c.NextNonce()), Cur: types.Value("v")}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i <= ops; i++ {
		f, err := cl.Submit(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-f.Done():
		default:
			t.Fatalf("op %d: Submit returned an unresolved future", i)
		}
		if held := len(cl.pl.slots); held != 0 {
			t.Fatalf("op %d: %d slots still held after Submit returned", i, held)
		}
		if _, err := f.Result(ctx); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		for j, vs := range vss {
			var ts types.Timestamp
			vs.Peek(key, func(v *types.TaggedValue) { ts = v.TS })
			if ts != types.Timestamp(i) {
				t.Fatalf("op %d: s%d holds ts %d, want %d", i, j+1, ts, i)
			}
		}
	}
}

// TestSubmitCancelsRoundTwo: over log-less in-memory servers a two-round
// async Submit finishes round one inside its own broadcast and is already in
// round two when Submit binds its future. Round two here never reaches a
// quorum (Accept refuses its acks), so only cancelling the submission's
// context can end it: the abort must reach round two, resolve the future
// with the context's error and free the slot.
func TestSubmitCancelsRoundTwo(t *testing.T) {
	const key = "k"
	net := transport.NewInMemNetwork()
	defer net.Close()
	servers := ServerIDs(4)
	for _, id := range servers {
		startValueServer(t, net, id)
	}
	node, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	demux := transport.NewDemux(node, WireKeyFunc, 0)
	defer demux.Close()
	write := func(c *Call[struct{}]) {
		c.Req = wire.Message{Op: wire.OpWrite, Key: key, TS: types.Timestamp(c.NextNonce()), Cur: types.Value("v")}
	}
	cl, err := NewClient(ClientConfig{Quorum: quorum.Config{Servers: len(servers)}, Key: key, Depth: 1}, demux.Route(key), Rounds[struct{}]{
		Name: "test two-round write", Role: types.RoleWriter, Need: 3,
		Begin: func(c *Call[struct{}]) error {
			write(c)
			return nil
		},
		Accept: func(c *Call[struct{}], _ types.ProcessID, _ *wire.Message) bool { return c.Round == 0 },
		Finish: func(c *Call[struct{}], _ []Ack) (bool, error) {
			write(c)
			return true, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		f, err := cl.Submit(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("op %d: cancelling the submission left round two running", i)
		}
		if _, err := f.Result(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("op %d: Result = %v, want %v", i, err, context.Canceled)
		}
		// The abort resolves the future from its completion, which frees
		// the slot just after: wait for it.
		for deadline := time.Now().Add(10 * time.Second); len(cl.pl.slots) != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("op %d: the aborted operation never freed its slot", i)
			}
		}
	}
}
