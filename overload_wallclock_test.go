//go:build wallclock

// The overload acceptance test asserts rates measured on the wall clock, so
// it runs only under the wallclock build tag, never under -race (the
// detector's slowdown, not the system, would set the rates):
//
//	go test -tags wallclock -run '^TestOverloadAcceptance$' -count=3 .

package fastread

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fastread/internal/transport"
	"fastread/internal/workload"
)

// paceClock steps c in real time until the returned stop function is
// called: every 100µs tick it schedules a marker at the wall time elapsed
// since the call and steps until the marker fires, so every event runs
// once its virtual due time has passed on the wall clock.
func paceClock(t *testing.T, c *transport.VirtualClock) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			reached := false
			c.Schedule(time.Since(start)-c.Now().Sub(transport.VirtualEpoch), func() { reached = true })
			for !reached {
				if _, err := c.Step(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// openLoopClient adapts a set of Register handles to the open-loop
// generator. The generator shards arrivals by key, so each handle only ever
// sees one submitter at a time — the single-writer discipline the handles
// require.
func openLoopClient(regs []*Register) workload.OpenLoopClient {
	writers := make([]Writer, len(regs))
	readers := make([]Reader, len(regs))
	for i, reg := range regs {
		writers[i] = reg.Writer()
		readers[i] = reg.Readers()[0]
	}
	return workload.OpenLoopClient{
		SubmitWrite: func(ctx context.Context, key int, seq int64) (func(context.Context) error, error) {
			wf, err := writers[key].WriteAsync(ctx, []byte(fmt.Sprintf("v%d", seq)))
			if err != nil {
				return nil, err
			}
			return wf.Result, nil
		},
		SubmitRead: func(ctx context.Context, key int) (func(context.Context) error, error) {
			rf, err := readers[key].ReadAsync(ctx)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context) error {
				_, err := rf.Result(ctx)
				return err
			}, nil
		},
	}
}

// TestOverloadAcceptance is the acceptance test of overload control: sweep
// an in-memory deployment to find its knee, then drive it at 2× the knee
// rate with bounded queues and admission control, and check that the
// deployment degrades gracefully — server queues stay under their bound,
// goodput holds at ≥70% of the swept peak, and every missing operation is
// accounted for by an explicit shed/timeout/failure counter.
func TestOverloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep takes a few seconds")
	}
	const (
		keys  = 4
		bound = 128
	)
	// The transport delay makes the round trip — not host CPU — the capacity
	// bottleneck, so the knee lands in the same place on a loaded 1-CPU CI
	// box as on a fast workstation. The delay is virtual, and pacing the
	// clock to the wall clock turns it into real time. Capacity ≈ keys ×
	// depth/RTT = 4 × 2/4ms ≈ 2000 ops/s. AdmissionWait (500µs) is
	// deliberately below the per-slot free gap (RTT/depth = 2ms) so that a
	// saturated pipeline fails fast with ErrOverloaded instead of silently
	// throttling the generator to the completion rate.
	clock := transport.NewVirtualClock()
	defer paceClock(t, clock)()
	store, err := NewStore(Config{
		Servers:       4,
		Faulty:        1,
		Readers:       1,
		Protocol:      ProtocolFast,
		PipelineDepth: 2,
		Transport:     InMemory(WithDelay(2*time.Millisecond), WithVirtualClock(clock)),
		AdmissionWait: 500 * time.Microsecond,
		QueueBound:    bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	client := openLoopClient(registerRange(t, store, keys))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	base := workload.OpenLoopConfig{
		Duration:     400 * time.Millisecond,
		Poisson:      true,
		Seed:         42,
		Keys:         keys,
		ZipfS:        1.0,
		ReadFraction: 0.5,
		Workers:      keys,
		OpTimeout:    2 * time.Second,
	}
	points, err := workload.RunSweep(ctx, workload.SweepConfig{
		Base:         base,
		Rates:        []float64{300, 600, 1200},
		StepDuration: base.Duration,
		Settle:       50 * time.Millisecond,
	}, client)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("sweep of 3 rates returned %d points: %+v", len(points), points)
	}
	knee, ok := workload.Knee(points, 100*time.Millisecond)
	if !ok {
		t.Fatalf("no knee under 100ms p99 in sweep: %+v", points)
	}
	var peak float64
	for _, p := range points {
		if p.Goodput > peak {
			peak = p.Goodput
		}
	}
	t.Logf("sweep: knee at %.0f ops/s (p99 %.2fms), peak goodput %.0f ops/s",
		points[knee].OfferedRate, points[knee].P99ms, peak)

	// 2× the knee: the deployment must shed, not collapse.
	over := base
	over.Rate = 2 * points[knee].OfferedRate
	over.Duration = 600 * time.Millisecond
	over.Seed = 43
	res, err := workload.RunOpenLoop(ctx, over, client)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2x knee (%.0f ops/s): completed=%d overloaded=%d timeouts=%d failed=%d overrun=%d goodput=%.0f",
		over.Rate, res.Completed, res.Overloaded, res.Timeouts, res.Failed, res.Overrun, res.Goodput())

	if got := res.Completed + res.Overloaded + res.Timeouts + res.Failed + res.Overrun; got != res.Offered {
		t.Errorf("accounting leak: offered %d but classified %d", res.Offered, got)
	}
	if res.Overloaded == 0 {
		t.Error("expected admission control to shed at 2x the knee, got 0 ErrOverloaded")
	}
	if res.Failed != 0 {
		t.Errorf("unexpected hard failures under overload: %d", res.Failed)
	}
	if g := res.Goodput(); g < 0.7*peak {
		t.Errorf("goodput collapsed under overload: %.0f ops/s < 70%% of peak %.0f", g, peak)
	}
	st := store.Stats()
	if st.MailboxHighWater > bound {
		t.Errorf("mailbox high water %d exceeds queue bound %d", st.MailboxHighWater, bound)
	}
}
