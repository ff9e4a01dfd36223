package protoutil

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// valueServer is a one-value register on a Shell. It adopts a newer write
// the way every shipped server does, copying the value into the register's
// own buffers, and remembers the arena each request arrived in.
type valueServer struct {
	*Shell[types.TaggedValue]
	arrived atomic.Pointer[wire.Arena]
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
			vs.arrived.Store(m.Arena)
			vs.Do(req.Key, func(sl *Slot[types.TaggedValue]) {
				if req.TS > sl.State.TS {
					sl.State.CopyFrom(req.Tagged())
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

// value is a copy of the key's register.
func (vs *valueServer) value(key string) types.TaggedValue {
	var v types.TaggedValue
	vs.Peek(key, func(st *types.TaggedValue) { v = st.Clone() })
	return v
}

// written is the value the tests write at ts.
func written(ts types.Timestamp) types.TaggedValue {
	return types.TaggedValue{TS: ts, Cur: types.Value(fmt.Sprintf("value-%d", ts)), Prev: types.Value(fmt.Sprintf("prev-%d", ts))}
}

// wantValue fails unless the key's register on vs holds want.
func wantValue(t *testing.T, what string, vs *valueServer, key string, want types.TaggedValue) {
	t.Helper()
	if got := vs.value(key); got.TS != want.TS || !got.Cur.Equal(want.Cur) || !got.Prev.Equal(want.Prev) {
		t.Errorf("%s: %v holds %s under %q, want %s", what, vs.ID(), got, key, want)
	}
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
// Store handle is: one broadcast is one arena that every server's delivery
// shares, and once the servers have acknowledged, none of them holds a
// reference on it — each copied the value into its register. That holds for
// a broadcast that reaches fewer servers (an isolated one, a closed client
// node) too, and a node with only Send delivers no arena at all. The values
// are read back after the arenas went back to the pool; race builds poison
// an arena on its final release, so a register that kept an alias reads
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
		v := written(ts)
		req := &wire.Message{Op: wire.OpWrite, Key: key, TS: ts, Cur: v.Cur, Prev: v.Prev}
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
	// check compares the arena each server's last request arrived in with
	// want, and the value each server holds with the one written at ts.
	check := func(what string, want []*wire.Arena, ts ...types.Timestamp) {
		t.Helper()
		for i, vs := range vss {
			if got := vs.arrived.Load(); got != want[i] {
				t.Errorf("%s: s%d's request arrived in %p, want %p", what, i+1, got, want[i])
			}
			wantValue(t, what, vs, key, written(ts[i]))
		}
	}
	wantOnlySpy := func(what string, a *wire.Arena) {
		t.Helper()
		if got := a.Refs(); got != 1 {
			t.Errorf("%s: arena refs %d after the acks, want only the spy's", what, got)
		}
		a.Release()
	}

	if err := write(spy, 1, 4); err != nil {
		t.Fatal(err)
	}
	first := spy.take()
	wantOnlySpy("first write", first)
	check("first write", []*wire.Arena{first, first, first, first}, 1, 1, 1, 1)

	if err := write(spy, 2, 4); err != nil {
		t.Fatal(err)
	}
	second := spy.take()
	wantOnlySpy("second write", second)
	check("second write", []*wire.Arena{second, second, second, second}, 2, 2, 2, 2)

	net.Isolate(servers[3])
	if err := write(spy, 3, 3); err != nil {
		t.Fatal(err)
	}
	third := spy.take()
	wantOnlySpy("isolated s4", third)
	check("isolated s4", []*wire.Arena{third, third, third, second}, 3, 3, 3, 2)
	net.Reconnect(servers[3])

	if err := write(struct{ transport.Node }{route}, 4, 4); err != nil {
		t.Fatal(err)
	}
	check("send-only node", []*wire.Arena{nil, nil, nil, nil}, 4, 4, 4, 4)

	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := write(spy, 5, 0); err == nil {
		t.Fatal("a broadcast from a closed node succeeded")
	}
	wantOnlySpy("closed node", spy.take())
}

// TestHandledFrameIsReleased: a server that adopts the values of one batch
// frame — writes for three keys in one arena, as a socket read loop hands
// over what a pipelined client sent — holds no reference on the frame once
// it has acknowledged them. Its registers hold their own copies: the test,
// the frame's last holder, overwrites it and reads every value back.
func TestHandledFrameIsReleased(t *testing.T) {
	net := transport.NewInMemNetwork()
	defer net.Close()
	vs := startValueServer(t, net, types.Server(1))
	client, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	var b wire.Batch
	b.GrowArena(256)
	for _, key := range keys {
		v := written(1)
		if err := b.AppendMessage(&wire.Message{Op: wire.OpWrite, Key: key, TS: v.TS, Cur: v.Cur, Prev: v.Prev}); err != nil {
			t.Fatal(err)
		}
	}
	payload := b.Bytes()
	frame := b.TakeArena()
	frame.Ref() // the test's own, beside the one the send hands over
	defer frame.Release()
	if err := client.(transport.ArenaSender).SendArena(vs.ID(), wire.OpWrite.String(), payload, frame); err != nil {
		t.Fatal(err)
	}
	for acks := 0; acks < len(keys); {
		select {
		case m := <-client.Inbox():
			transport.Expand(m, func(transport.Message) { acks++ })
			m.ReleaseArena()
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d acknowledgements arrived", acks, len(keys))
		}
	}
	if got := frame.Refs(); got != 1 {
		t.Fatalf("the frame holds %d references after its acks, want only the test's", got)
	}
	for i := range payload {
		payload[i] = 0xEE
	}
	for _, key := range keys {
		wantValue(t, "after the frame was overwritten", vs, key, written(1))
	}
}
