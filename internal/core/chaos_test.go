package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/atomicity"
	"fastread/internal/history"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// TestChaosRandomSchedulesStayAtomic drives the fast register through many
// randomised adversarial schedules — random link blocking/unblocking, random
// crashes of up to t servers, random interleavings of reads and writes — and
// checks every resulting history against the atomicity conditions. This is
// the property-based counterpart of the hand-crafted lower-bound schedule:
// within the R < S/t − 2 bound no schedule the adversary picks may produce a
// violation.
func TestChaosRandomSchedulesStayAtomic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is comparatively slow")
	}
	configs := []quorum.Config{
		{Servers: 4, Faulty: 1, Readers: 1},
		{Servers: 7, Faulty: 1, Readers: 2},
		{Servers: 10, Faulty: 2, Readers: 2},
	}
	const seedsPerConfig = 4

	for _, cfg := range configs {
		for seed := int64(1); seed <= seedsPerConfig; seed++ {
			name := fmt.Sprintf("S=%d_t=%d_R=%d_seed=%d", cfg.Servers, cfg.Faulty, cfg.Readers, seed)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				runChaosSchedule(t, cfg, seed)
			})
		}
	}
}

// runChaosSchedule executes one randomised schedule and checks atomicity.
func runChaosSchedule(t *testing.T, cfg quorum.Config, seed int64) {
	t.Helper()
	c := newTestCluster(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	recorder := history.NewRecorder()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Adversary goroutine: holds random client→server and server→client
	// links and drops what they held, and crashes up to t servers, while the
	// workload runs. Held links are always opened again shortly after so
	// that operations keep terminating (the adversary may delay, not
	// destroy, more than t servers).
	stopAdversary := make(chan struct{})
	var adversaryDone sync.WaitGroup
	adversaryDone.Add(1)
	go func() {
		defer adversaryDone.Done()
		clients := []types.ProcessID{types.Writer()}
		for i := 1; i <= cfg.Readers; i++ {
			clients = append(clients, types.Reader(i))
		}
		crashesLeft := cfg.Faulty
		var held [][2]types.ProcessID
		for {
			select {
			case <-stopAdversary:
				return
			default:
			}
			client := clients[rng.Intn(len(clients))]
			server := types.Server(rng.Intn(cfg.Servers) + 1)
			switch rng.Intn(6) {
			case 0:
				c.net.Hold(client, server)
				held = append(held, [2]types.ProcessID{client, server})
			case 1:
				c.net.Hold(server, client)
				held = append(held, [2]types.ProcessID{server, client})
			case 2, 3:
				for _, l := range held {
					c.net.DropHeld(l[0], l[1])
				}
				held = held[:0]
			case 4:
				if crashesLeft > 0 && rng.Intn(4) == 0 {
					c.net.Isolate(types.Server(cfg.Servers - crashesLeft + 1))
					crashesLeft--
				}
			case 5:
				// Let the system breathe.
			}
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}()

	const writes = 25
	readsPerReader := 35

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= writes; i++ {
			value := types.Value(fmt.Sprintf("chaos-%d", i))
			op := recorder.Invoke(types.Writer(), history.OpWrite, value)
			opCtx, opCancel := context.WithTimeout(ctx, 5*time.Second)
			err := c.writer.Write(opCtx, value)
			opCancel()
			if err != nil {
				// In the model a writer with an incomplete write has crashed:
				// it must not start another write, since reusing the timestamp
				// for a different value would put two values at one timestamp
				// and make the history unsound for the checker.
				recorder.Fail(op)
				return
			}
			recorder.Return(op, nil, types.Timestamp(i))
		}
	}()
	for r := 1; r <= cfg.Readers; r++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				op := recorder.Invoke(types.Reader(idx), history.OpRead, nil)
				opCtx, opCancel := context.WithTimeout(ctx, 5*time.Second)
				res, err := c.readers[idx-1].Read(opCtx)
				opCancel()
				if err != nil {
					recorder.Fail(op)
					continue
				}
				recorder.Return(op, res.Value, res.Timestamp)
			}
		}(r)
	}
	wg.Wait()
	close(stopAdversary)
	adversaryDone.Wait()

	// The adversary may have blocked links at the moment operations timed
	// out; that only makes some operations incomplete, which the checker
	// treats correctly.
	h := recorder.History()
	report, err := atomicity.CheckSWMR(h)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !report.OK {
		t.Fatalf("atomicity violated under chaos schedule (seed %d):\n%s", seed, report)
	}
	if len(h.Reads()) == 0 {
		t.Fatalf("chaos schedule starved every read (seed %d)", seed)
	}
}

// TestChaosWideReaderSetsStayAtomic is the chaos schedule at the reader
// counts where the seen sets of one read genuinely diverge: every reader
// reads concurrently with the writer while an adversary holds and releases
// random writer→server and server→reader links (delaying, never dropping). The Byzantine row adds a server that claims
// every client in its seen set. Each history goes through the atomicity
// checker, and each run must have put the predicate's lattice walk — not only
// its all-identical fast path — on the checked path: among reads whose maxTS
// acknowledgements carried at least two distinct seen sets, one held at a
// level above 1 and one fell back to maxTS−1. The writer keeps writing until
// both have happened, or until 6 s of the run's 8 s have passed, which leaves
// the readers' last reads time to finish: a count of writes is no bound on a
// loaded machine, where a fallback may take more writes to come about.
func TestChaosWideReaderSetsStayAtomic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is comparatively slow")
	}
	for _, cfg := range []quorum.Config{
		{Servers: 11, Faulty: 1, Readers: 8},
		{Servers: 19, Faulty: 1, Readers: 16},
		{Servers: 14, Faulty: 1, Malicious: 1, Readers: 3},
	} {
		t.Run(fmt.Sprintf("S=%d_t=%d_b=%d_R=%d", cfg.Servers, cfg.Faulty, cfg.Malicious, cfg.Readers), func(t *testing.T) {
			runWideChaosSchedule(t, cfg, 1)
		})
	}
}

func runWideChaosSchedule(t *testing.T, cfg quorum.Config, seed int64) {
	t.Helper()
	net := transport.NewInMemNetwork()
	opts := []clusterOption{withNetwork(net)}
	if cfg.Malicious > 0 {
		opts = append(opts, withByzantine(), withInflaters(cfg.Malicious))
	}
	c := newTestCluster(t, cfg, opts...)
	recorder := history.NewRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()

	// Adversary: holds one or two random links for up to a millisecond, then
	// releases them. One held writer link lets the write complete without
	// that server; two stall it with the value at part of the system.
	stopAdversary := make(chan struct{})
	var adversaryDone sync.WaitGroup
	adversaryDone.Add(1)
	go func() {
		defer adversaryDone.Done()
		rng := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-stopAdversary:
				return
			default:
			}
			var buf [2][2]types.ProcessID // {from, to}
			held := buf[:1+rng.Intn(2)]
			for i := range held {
				server := types.Server(1 + rng.Intn(cfg.Servers))
				if rng.Intn(2) == 0 {
					held[i] = [2]types.ProcessID{types.Writer(), server}
				} else {
					held[i] = [2]types.ProcessID{server, types.Reader(1 + rng.Intn(cfg.Readers))}
				}
				net.Hold(held[i][0], held[i][1])
			}
			time.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
			for _, l := range held {
				net.Release(l[0], l[1])
			}
		}
	}()

	var walkHeldAbove1, walkFellBack atomic.Bool
	const minWrites = 10
	writeUntil := time.Now().Add(6 * time.Second)
	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for i := 1; time.Now().Before(writeUntil); i++ {
			if i > minWrites && walkHeldAbove1.Load() && walkFellBack.Load() {
				return
			}
			value := types.Value(fmt.Sprintf("wide-%d", i))
			op := recorder.Invoke(types.Writer(), history.OpWrite, value)
			if err := c.writer.Write(ctx, value); err != nil {
				recorder.Fail(op) // see runChaosSchedule: the writer stops here
				return
			}
			recorder.Return(op, nil, types.Timestamp(i))
		}
	}()
	for _, rd := range c.readers {
		wg.Add(1)
		go func(rd *Reader) {
			defer wg.Done()
			for last := false; !last; {
				select {
				case <-writerDone:
					last = true // one more read, after the final write
				default:
				}
				op := recorder.Invoke(rd.ID(), history.OpRead, nil)
				res, err := rd.Read(ctx)
				if err != nil {
					recorder.Fail(op)
					return
				}
				recorder.Return(op, res.Value, res.Timestamp)
				// This reader's reads are serial, so its scratch still holds
				// the read that just returned (and nothing else touches it).
				diverged := len(rd.pred.seen) >= 2
				if diverged && res.PredicateLevel > 1 {
					walkHeldAbove1.Store(true)
				}
				if diverged && !res.PredicateHeld {
					walkFellBack.Store(true)
				}
			}
		}(rd)
	}
	wg.Wait()
	close(stopAdversary)
	adversaryDone.Wait()

	h := recorder.History()
	report, err := atomicity.CheckSWMR(h)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !report.OK {
		t.Fatalf("atomicity violated (seed %d):\n%s", seed, report)
	}
	if ctx.Err() != nil {
		t.Fatalf("schedule did not finish in time: %d writes, %d reads", len(h.Writes()), len(h.Reads()))
	}
	if !walkHeldAbove1.Load() || !walkFellBack.Load() {
		t.Fatalf("after %d writes and %d reads the lattice walk was not covered: held above level 1 = %v, fell back = %v",
			len(h.Writes()), len(h.Reads()), walkHeldAbove1.Load(), walkFellBack.Load())
	}
}

// TestStaleAckFromPreviousReadIsIgnored delays a server's acknowledgement so
// that it arrives during the reader's NEXT operation; the rCounter filter
// must discard it rather than let an old timestamp influence a new read.
func TestStaleAckFromPreviousReadIsIgnored(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	c := newTestCluster(t, cfg)

	c.write("v1")

	// Hold server 1's replies to the reader: the first read completes using
	// the other three servers.
	c.net.Hold(types.Server(1), types.Reader(1))
	first := c.read(1)
	if first.Timestamp != 1 {
		t.Fatalf("first read returned ts=%d, want 1", first.Timestamp)
	}

	// A new value is written, then the held (stale, rCounter=1) ack is
	// released while the second read (rCounter=2) is collecting replies.
	c.write("v2")
	c.net.Release(types.Server(1), types.Reader(1))
	second := c.read(1)
	if second.Timestamp != 2 || !second.Value.Equal(types.Value("v2")) {
		t.Fatalf("second read returned ts=%d value=%s, want ts=2 v2", second.Timestamp, second.Value)
	}
}

// TestReaderWriteBackPropagatesAcrossReads exercises the mechanism behind
// Lemma 2/case 〈5〉2: a reader that observed a high timestamp writes it back
// in its next read, so even servers that missed the original write answer
// with the newer timestamp from then on.
func TestReaderWriteBackPropagatesAcrossReads(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	c := newTestCluster(t, cfg)

	// The write reaches only servers s1..s3 (s4 is held), so s4 still has
	// ts=0 afterwards.
	c.net.Hold(types.Writer(), types.Server(4))
	c.write("v1")
	if ts := c.servers[3].State().Value.TS; ts != 0 {
		t.Fatalf("setup: s4 already has ts=%d", ts)
	}

	// First read: the reader learns ts=1 (from s1..s3).
	res := c.read(1)
	if res.Timestamp != 1 {
		t.Fatalf("first read ts=%d, want 1", res.Timestamp)
	}
	// Second read: its request writes ts=1 back to every server, including
	// s4, which must adopt it (Figure 2 line 27 treats read messages the
	// same as writes).
	c.read(1)
	deadline := time.Now().Add(time.Second)
	for {
		if c.servers[3].State().Value.TS >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("s4 never adopted the written-back timestamp")
		}
		time.Sleep(time.Millisecond)
	}
	if !c.servers[3].State().Value.Cur.Equal(types.Value("v1")) {
		t.Fatalf("s4 adopted ts=1 but stores %s", c.servers[3].State().Value.Cur)
	}
}
