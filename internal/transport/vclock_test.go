package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fastread/internal/types"
)

// stepAll steps the clock until no event remains, failing the test on the
// first Step error.
func stepAll(t *testing.T, c *VirtualClock) {
	t.Helper()
	for {
		ran, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			return
		}
	}
}

// TestVirtualClockOrder checks that events fire in (due time, schedule
// sequence) order and that Now advances to each event's due instant.
func TestVirtualClockOrder(t *testing.T) {
	c := NewVirtualClock()
	var got []string
	c.Schedule(30*time.Millisecond, func() { got = append(got, "c") })
	c.Schedule(10*time.Millisecond, func() { got = append(got, "a") })
	c.Schedule(10*time.Millisecond, func() { got = append(got, "b") })
	c.Schedule(0, func() {
		got = append(got, "now")
		// An event scheduled mid-run lands relative to the current instant.
		c.Schedule(5*time.Millisecond, func() { got = append(got, "mid") })
	})
	stepAll(t, c)
	want := "now,mid,a,b,c"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("event order = %s, want %s", s, want)
	}
	if want := VirtualEpoch.Add(30 * time.Millisecond); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
}

// TestClockedDeliveryLeftQueuedFailsItsStep: a delivery its clock event
// cannot hand to a consumer — the node is read through Inbox, or nobody
// claimed it — makes that very Step return an error, and the next Step is
// clean again.
func TestClockedDeliveryLeftQueuedFailsItsStep(t *testing.T) {
	for _, row := range []struct {
		name    string
		consume func(Node)
	}{
		{"inbox", func(n Node) { n.Inbox() }},
		{"unclaimed", func(Node) {}},
	} {
		t.Run(row.name, func(t *testing.T) {
			clock := NewVirtualClock()
			net := NewInMemNetwork(WithClock(clock))
			defer net.Close()
			src := mustJoin(t, net, types.Server(1))
			dst := mustJoin(t, net, types.Reader(1))
			row.consume(dst)
			if err := src.Send(dst.ID(), "m", []byte("x")); err != nil {
				t.Fatal(err)
			}
			clock.Schedule(time.Millisecond, func() {})
			ran, err := clock.Step()
			if !ran || err == nil || !strings.Contains(err.Error(), "stayed queued") {
				t.Fatalf("Step of a delivery left queued = (%v, %v), want (true, stayed-queued error)", ran, err)
			}
			if ran, err := clock.Step(); !ran || err != nil {
				t.Fatalf("the next Step = (%v, %v), want (true, nil)", ran, err)
			}
		})
	}
}

// virtualEchoRun wires two nodes onto a virtual-clock network with jitter,
// fires n requests, and returns the order in which the responder's replies
// arrived back (identified by payload).
func virtualEchoRun(t *testing.T, seed int64, n int) []string {
	t.Helper()
	clock := NewVirtualClock()
	net := NewInMemNetwork(
		WithClock(clock),
		WithSeed(seed),
		WithDefaultDelay(200*time.Microsecond),
		WithJitter(300*time.Microsecond),
	)
	defer net.Close()
	w := types.Writer()
	s := types.Server(1)
	nw, err := net.Join(w)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := net.Join(s)
	if err != nil {
		t.Fatal(err)
	}
	runConsume(ns, expanding(func(m Message) {
		_ = ns.Send(m.From, "echo", append([]byte(nil), m.Payload...))
	}), nil)
	var got []string
	runConsume(nw, expanding(func(m Message) {
		got = append(got, string(m.Payload))
	}), nil)
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("m%d", i))
		clock.Schedule(0, func() { _ = nw.Send(s, "req", payload) })
	}
	stepAll(t, clock)
	return got
}

// TestVirtualNetworkDeterministic checks the tentpole property at the
// transport layer: same seed → identical delivery order (even with jitter),
// and the jittered order differs from plain send order (so the test cannot
// pass vacuously).
func TestVirtualNetworkDeterministic(t *testing.T) {
	const n = 64
	a := virtualEchoRun(t, 7, n)
	b := virtualEchoRun(t, 7, n)
	if len(a) != n {
		t.Fatalf("run delivered %d/%d replies", len(a), n)
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed produced different orders:\n%v\n%v", a, b)
	}
	inOrder := true
	for i, v := range a {
		if v != fmt.Sprintf("m%d", i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("jittered run delivered in send order; jitter seems inert under the virtual clock")
	}
	c := virtualEchoRun(t, 8, n)
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Log("note: different seeds produced identical orders (possible but unlikely)")
	}
}
