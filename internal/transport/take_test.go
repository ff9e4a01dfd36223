package transport

import (
	"sync"
	"testing"
	"time"

	"fastread/internal/types"
)

// takeRecorder is a consumer that records which goroutine delivered each
// payload, and counts run ends.
type takeRecorder struct {
	mu   sync.Mutex
	got  []string
	by   []int64
	ends int
	// during, if set, runs inside the delivery of the first message.
	during func()
}

func (r *takeRecorder) deliver(m Message) {
	r.mu.Lock()
	first := len(r.got) == 0
	r.got = append(r.got, string(m.Payload))
	r.by = append(r.by, goid())
	during := r.during
	r.mu.Unlock()
	if first && during != nil {
		during()
	}
	m.ReleaseArena()
}

func (r *takeRecorder) runEnd() {
	r.mu.Lock()
	r.ends++
	r.mu.Unlock()
}

func (r *takeRecorder) snapshot() ([]string, []int64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.got...), append([]int64(nil), r.by...), r.ends
}

// TestTakenRunDeliversOnTheTaker pins the taken-run rule on a TakerRuns
// queue: a taking send that finds it idle gets the queue back and nothing is
// delivered until its RunTaken, which delivers everything queued by then —
// later sends, taking or plain, only append meanwhile — in FIFO order on the
// taker's goroutine, as one run. What arrives during that run, and a plain
// send to the idle queue, are the consumer goroutine's.
func TestTakenRunDeliversOnTheTaker(t *testing.T) {
	net := NewInMemNetwork()
	defer net.Close()
	srv := mustJoin(t, net, types.Server(1))
	client := mustJoin(t, net, types.Reader(1))
	rec := &takeRecorder{}
	rec.during = func() { _ = client.Send(srv.ID(), "m", []byte("late")) }
	serve := Claim(srv, rec.deliver, rec.runEnd, TakerRuns)
	consumer := make(chan int64, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		consumer <- goid()
		serve()
	}()
	consumerID := <-consumer
	me := goid()

	run, err := SendTaking(client, srv.ID(), "m", []byte("0"), nil)
	if err != nil || run == nil {
		t.Fatalf("a taking send to an idle server = (%v, %v), want its queue", run, err)
	}
	if again, err := SendTaking(client, srv.ID(), "m", []byte("1"), nil); err != nil || again != nil {
		t.Fatalf("a taking send while the run is reserved = (%v, %v), want (nil, nil)", again, err)
	}
	returnsSoon(t, "a plain send while the run is reserved", func() {
		_ = client.Send(srv.ID(), "m", []byte("2"))
	})
	if got, _, _ := rec.snapshot(); len(got) != 0 {
		t.Fatalf("%q delivered before the taker ran its run", got)
	}
	if queued := srv.(*inMemNode).Len(); queued != 3 {
		t.Fatalf("%d messages queued behind the reserved run, want 3", queued)
	}

	run.RunTaken()
	got, by, ends := rec.snapshot()
	if want := []string{"0", "1", "2"}; len(got) < 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("the taken run delivered %q, want %q first", got, want)
	}
	for i := 0; i < 3; i++ {
		if by[i] != me {
			t.Errorf("message %q was delivered by goroutine %d, not the taker", got[i], by[i])
		}
	}
	if ends < 1 {
		t.Error("the taken run never ended")
	}

	waitUntil(t, "the message sent during the taken run", func() bool {
		got, _, _ := rec.snapshot()
		return len(got) == 4
	})
	got, by, _ = rec.snapshot()
	if got[3] != "late" || by[3] != consumerID {
		t.Errorf("message %q sent during the run was delivered by %d, want \"late\" by the consumer %d", got[3], by[3], consumerID)
	}

	_ = client.Send(srv.ID(), "m", []byte("plain"))
	waitUntil(t, "a plain send to the idle server", func() bool {
		got, _, _ := rec.snapshot()
		return len(got) == 5
	})
	if got, by, _ := rec.snapshot(); by[4] != consumerID {
		t.Errorf("plain send %q to an idle server was delivered by %d, want the consumer %d", got[4], by[4], consumerID)
	}

	_ = srv.Close()
	waitClosed(t, "the consumer", served)
}

// TestTakenRunOnlyFromTakerQueues: a taking send takes nothing from a queue
// claimed ConsumerRuns (the consumer delivers) or PusherRuns (the push
// delivers, as for a plain send), nor under a virtual clock, where it only
// schedules; a demux route forwards the take to its physical node, and a node
// that is no RunTaker gets a plain send.
func TestTakenRunOnlyFromTakerQueues(t *testing.T) {
	for _, row := range []struct {
		name  string
		runs  Runs
		clock bool
		wrap  func(Node, *Demux) Node
		taken bool
	}{
		{"taker", TakerRuns, false, nil, true},
		{"consumer", ConsumerRuns, false, nil, false},
		{"pusher", PusherRuns, false, nil, false},
		{"virtual clock", TakerRuns, true, nil, false},
		{"demux route", TakerRuns, false, func(_ Node, d *Demux) Node { return d.Route("k") }, true},
		{"send only", TakerRuns, false, func(n Node, _ *Demux) Node { return struct{ Node }{n} }, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			var opts []InMemOption
			var clock *VirtualClock
			if row.clock {
				clock = NewVirtualClock()
				opts = append(opts, WithClock(clock))
			}
			net := NewInMemNetwork(opts...)
			defer net.Close()
			srv := mustJoin(t, net, types.Server(1))
			client := mustJoin(t, net, types.Writer())
			var from Node = client
			if row.wrap != nil {
				d := NewDemux(client, demuxKeyFunc, 0)
				defer d.Close()
				from = row.wrap(client, d)
			}
			delivered := make(chan int64, 1)
			serve := Claim(srv, func(m Message) {
				delivered <- goid()
				m.ReleaseArena()
			}, nil, row.runs)
			go serve()

			run, err := SendTaking(from, srv.ID(), "m", []byte("k|x"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if taken := run != nil; taken != row.taken {
				t.Fatalf("taking send took the run: %v, want %v", taken, row.taken)
			}
			if run != nil {
				run.RunTaken()
			}
			if clock != nil {
				stepAll(t, clock)
			}
			select {
			case <-delivered:
			case <-time.After(5 * time.Second):
				t.Fatal("the message was never delivered")
			}
		})
	}
}
