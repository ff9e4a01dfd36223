package transport

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/types"
)

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
	for c.RunNext() {
	}
	want := "now,mid,a,b,c"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("event order = %s, want %s", s, want)
	}
	if want := VirtualEpoch.Add(30 * time.Millisecond); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
}

// TestVirtualClockStall checks that Step reports an outstanding activity
// token as an error instead of hanging.
func TestVirtualClockStall(t *testing.T) {
	c := NewVirtualClock()
	c.Schedule(time.Millisecond, func() {})
	c.begin()
	if _, err := c.Step(20 * time.Millisecond); err == nil {
		t.Fatal("Step with an outstanding token should report a stall")
	}
	c.end()
	if ran, err := c.Step(time.Second); err != nil || !ran {
		t.Fatalf("Step after token release = (%v, %v), want (true, nil)", ran, err)
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
	go serve(ns, func(m Message) {
		_ = ns.Send(m.From, "echo", append([]byte(nil), m.Payload...))
	})
	var mu sync.Mutex
	var got []string
	go serve(nw, func(m Message) {
		mu.Lock()
		got = append(got, string(m.Payload))
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("m%d", i))
		clock.Schedule(0, func() { _ = nw.Send(s, "req", payload) })
	}
	for {
		ran, err := clock.Step(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
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

// serve hands every protocol message delivered to node to handler, on one
// goroutine, until the node is closed.
func serve(node Node, handler func(Message)) {
	for msg := range node.Inbox() {
		Expand(msg, handler)
		msg.ReleaseArena()
	}
}

// TestVirtualClockStepWaitsForTheCascade: Step returns only once the work the
// fired event started has given its activity tokens back, so its caller sees
// the event's complete effect — what makes a simulation's observations
// independent of the goroutine schedule.
func TestVirtualClockStepWaitsForTheCascade(t *testing.T) {
	c := NewVirtualClock()
	var finished atomic.Bool
	c.Schedule(time.Millisecond, func() {
		c.begin()
		go func() {
			time.Sleep(20 * time.Millisecond)
			finished.Store(true)
			c.end()
		}()
	})
	if ran, err := c.Step(5 * time.Second); err != nil || !ran {
		t.Fatalf("Step = (%v, %v), want (true, nil)", ran, err)
	}
	if !finished.Load() {
		t.Fatal("Step returned while the event's cascade was still running")
	}
}
