package protoutil_test

import (
	"context"
	"runtime"
	"testing"

	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// TestClockedConsumersBindAtConstruction: once Shell.Start, NewDemux or
// NewPipeline has returned, the node has its consumer, so on a virtual clock
// the Step that delivers a message handles it — before any goroutine the
// constructor started has had a chance to run (GOMAXPROCS=1).
func TestClockedConsumersBindAtConstruction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ack := wire.MustEncode(&wire.Message{Op: wire.OpReadAck, Key: "k", RCounter: 1})
	for _, row := range []struct {
		name string
		// bind builds the consumer of node and returns a check that the
		// message sent to it was handled.
		bind func(t *testing.T, node transport.Node) (handled func() bool)
		// to is the role of the consuming node; the other end sends.
		to types.ProcessID
	}{
		{"shell", func(t *testing.T, node transport.Node) func() bool {
			var got bool
			sh, err := protoutil.NewShell(protoutil.ServerConfig{ID: types.Server(1)}, node, protoutil.Protocol[struct{}]{
				Name:     "probe",
				NewState: func() struct{} { return struct{}{} },
				Handle:   func(transport.Message, *wire.Message, transport.Sender) { got = true },
			})
			if err != nil {
				t.Fatal(err)
			}
			sh.Start()
			t.Cleanup(sh.Stop)
			return func() bool { return got }
		}, types.Server(1)},
		{"demux", func(t *testing.T, node transport.Node) func() bool {
			d := transport.NewDemux(node, protoutil.WireKeyFunc, 0)
			t.Cleanup(func() { _ = d.Close() })
			return awaitAck(t, protoutil.NewPipeline(d.Route("k"), 1, nil))
		}, types.Reader(1)},
		{"pipeline", func(t *testing.T, node transport.Node) func() bool {
			return awaitAck(t, protoutil.NewPipeline(node, 1, nil))
		}, types.Reader(1)},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock := transport.NewVirtualClock()
			net := transport.NewInMemNetwork(transport.WithClock(clock))
			t.Cleanup(func() { _ = net.Close() })
			from := types.Server(2)
			if row.to.Role == types.RoleServer {
				from = types.Reader(1)
			}
			sender, err := net.Join(from)
			if err != nil {
				t.Fatal(err)
			}
			node, err := net.Join(row.to)
			if err != nil {
				t.Fatal(err)
			}
			handled := row.bind(t, node)
			if err := sender.Send(row.to, "m", ack); err != nil {
				t.Fatal(err)
			}
			if ran, err := clock.Step(); !ran || err != nil {
				t.Fatalf("the delivery's Step = (%v, %v), want (true, nil)", ran, err)
			}
			if !handled() {
				t.Fatal("the delivery was not handled inside its Step")
			}
		})
	}
}

// awaitAck registers one operation on p that a single read ack with
// rcounter 1 completes, and returns whether it has.
func awaitAck(t *testing.T, p *protoutil.Pipeline) func() bool {
	t.Helper()
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var done bool
	p.Register(1, func(_ types.ProcessID, m *wire.Message) bool { return m.RCounter == 1 },
		func([]protoutil.Ack, error) { done = true })
	return func() bool { return done }
}
