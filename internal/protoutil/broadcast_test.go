package protoutil

import (
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// valueServer is a one-value register on a Shell. It adopts a newer write
// the way every shipped server does, through Slot.Adopt, and counts the
// values it had to clone.
type valueServer struct {
	*Shell[types.TaggedValue]
	clones atomic.Int64
}

func startValueServer(t *testing.T, net *transport.InMemNetwork, id types.ProcessID) *valueServer {
	t.Helper()
	node, err := net.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	vs := &valueServer{}
	sh, err := NewShell(ServerConfig{ID: id}, node, Protocol[types.TaggedValue]{
		Name:     "value",
		NewState: func() types.TaggedValue { return types.TaggedValue{} },
		Handle: func(m transport.Message, req *wire.Message, out transport.Sender) {
			vs.Do(req.Key, func(sl *Slot[types.TaggedValue]) {
				if req.TS <= sl.State.TS {
					return
				}
				sl.State = types.TaggedValue{TS: req.TS, Cur: req.Cur, Prev: req.Prev}
				if !sl.Adopt(m.Arena) {
					sl.State = sl.State.Clone()
					vs.clones.Add(1)
				}
			})
			_ = transport.SendEncoded(out, m.From, &wire.Message{Op: wire.OpWriteAck, Key: req.Key, TS: req.TS})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vs.Shell = sh
	sh.Start()
	t.Cleanup(sh.Stop)
	return vs
}

// pinned is the arena the key's slot pins, nil when its value is owned.
func (vs *valueServer) pinned(key string) *wire.Arena {
	var a *wire.Arena
	vs.PeekSlot(key, func(sl *Slot[types.TaggedValue]) { a = sl.arena })
	return a
}

// arenaSpy is a client node that remembers the arena of the broadcast in
// progress. It takes one reference on each new arena, so a test can read the
// arena's count after every other reference is gone; take hands that
// reference to the test.
type arenaSpy struct {
	transport.Node
	held *wire.Arena
}

func (s *arenaSpy) SendArena(to types.ProcessID, kind string, payload []byte, a *wire.Arena) error {
	if s.held != a {
		a.Ref()
		s.held = a
	}
	return s.Node.(transport.ArenaSender).SendArena(to, kind, payload, a)
}

func (s *arenaSpy) take() *wire.Arena {
	a := s.held
	s.held = nil
	return a
}

// TestBroadcastSharesOneArena pins the request side of wire's rule 4 over an
// in-memory S = 4 deployment, with the client on a demux route as every
// Store handle is: one broadcast is one arena that every server pins, the
// next write moves every pin off it, and a broadcast that reaches fewer
// servers (an isolated one, a closed client node) leaves no reference behind.
// A node with only Send delivers no arena, and the servers clone. Race
// builds poison an arena on its final release, so a missing Ref reads
// garbage here.
func TestBroadcastSharesOneArena(t *testing.T) {
	const key = "k"
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
	route := demux.Route(key)
	spy := &arenaSpy{Node: route}

	write := func(from transport.Node, ts types.Timestamp, acks int) error {
		t.Helper()
		req := &wire.Message{Op: wire.OpWrite, Key: key, TS: ts, Cur: types.Value("value"), Prev: types.Value("prev")}
		if err := broadcast(from, servers, req); err != nil {
			return err
		}
		for acks > 0 {
			select {
			case m := <-route.Inbox():
				m.ReleaseArena()
				acks--
			case <-time.After(5 * time.Second):
				t.Fatalf("write %d: %d acknowledgements never arrived", ts, acks)
			}
		}
		return nil
	}
	checkPins := func(what string, want ...*wire.Arena) {
		t.Helper()
		for i, vs := range vss {
			if got := vs.pinned(key); got != want[i] {
				t.Errorf("%s: s%d pins %p, want %p", what, i+1, got, want[i])
			}
		}
	}

	if err := write(spy, 1, 4); err != nil {
		t.Fatal(err)
	}
	first := spy.take()
	checkPins("first write", first, first, first, first)
	if got := first.Refs(); got != 5 {
		t.Errorf("first write: arena refs %d, want 4 pins + the spy's", got)
	}

	if err := write(spy, 2, 4); err != nil {
		t.Fatal(err)
	}
	second := spy.take()
	if second == first {
		t.Fatal("the second write reused the first write's arena while it was pinned")
	}
	checkPins("second write", second, second, second, second)
	if got := first.Refs(); got != 1 {
		t.Errorf("second write: first arena refs %d, want only the spy's", got)
	}
	first.Release()
	second.Release()
	if n := vss[0].clones.Load() + vss[1].clones.Load() + vss[2].clones.Load() + vss[3].clones.Load(); n != 0 {
		t.Errorf("servers cloned %d arena-backed values, want 0", n)
	}

	net.Isolate(servers[3])
	if err := write(spy, 3, 3); err != nil {
		t.Fatal(err)
	}
	third := spy.take()
	checkPins("isolated s4", third, third, third, second)
	if got := third.Refs(); got != 4 {
		t.Errorf("isolated s4: arena refs %d, want 3 pins + the spy's", got)
	}
	third.Release()
	net.Reconnect(servers[3])

	if err := write(struct{ transport.Node }{route}, 4, 4); err != nil {
		t.Fatal(err)
	}
	checkPins("send-only node", nil, nil, nil, nil)
	for i, vs := range vss {
		if got := vs.clones.Load(); got != 1 {
			t.Errorf("send-only node: s%d cloned %d values, want 1", i+1, got)
		}
	}

	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := write(spy, 5, 0); err == nil {
		t.Fatal("a broadcast from a closed node succeeded")
	}
	fifth := spy.take()
	if got := fifth.Refs(); got != 1 {
		t.Errorf("closed node: arena refs %d, want only the spy's", got)
	}
	fifth.Release()
}
