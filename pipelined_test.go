package fastread

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fastread/internal/atomicity"
	"fastread/internal/history"
	"fastread/internal/types"
)

// pipelinedReads drives one reader handle with up to depth reads in flight,
// recording each read's invocation (at submission) and response (at
// resolution) into the shared history recorder.
func pipelinedReads(ctx context.Context, t *testing.T, rec *history.Recorder, proc types.ProcessID, reader Reader, ops, depth int) {
	t.Helper()
	type pending struct {
		f  *ReadFuture
		id int64
	}
	window := make([]pending, 0, depth)
	harvest := func(p pending) {
		res, err := p.f.Result(ctx)
		if err != nil {
			rec.Fail(p.id)
			t.Errorf("%v pipelined read: %v", proc, err)
			return
		}
		rec.Return(p.id, types.Value(res.Value), types.Timestamp(res.Version))
	}
	for i := 0; i < ops; i++ {
		if len(window) == depth {
			harvest(window[0])
			window = window[1:]
		}
		id := rec.Invoke(proc, history.OpRead, nil)
		f, err := reader.ReadAsync(ctx)
		if err != nil {
			rec.Fail(id)
			t.Errorf("%v ReadAsync: %v", proc, err)
			return
		}
		window = append(window, pending{f: f, id: id})
	}
	for _, p := range window {
		harvest(p)
	}
}

// TestPipelinedReadAtomicity runs the atomicity checker over histories in
// which every reader keeps a full pipeline of reads in flight while the
// writer keeps writing — the regime the serial workload driver never
// produces. Fast and ABD both must stay atomic; servers run 4 key-shard
// workers so completions genuinely race (the CI race job runs this test
// under -race).
func TestPipelinedReadAtomicity(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{Servers: 7, Faulty: 1, Readers: 2, Protocol: ProtocolFast, ServerWorkers: 4, PipelineDepth: 8}},
		{"abd", Config{Servers: 5, Faulty: 2, Readers: 3, Protocol: ProtocolABD, ServerWorkers: 4, PipelineDepth: 8}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			store, err := NewStore(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			reg, err := store.Register("pipelined")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			rec := history.NewRecorder()
			const writes = 40
			readsPerReader := 80

			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 1; i <= writes; i++ {
					value := types.Value(fmt.Sprintf("pv%d", i))
					id := rec.Invoke(types.Writer(), history.OpWrite, value)
					if err := reg.Writer().Write(ctx, value); err != nil {
						rec.Fail(id)
						t.Errorf("write %d: %v", i, err)
						return
					}
					rec.Return(id, nil, types.Timestamp(i))
				}
			}()

			readersDone := make(chan struct{}, sc.cfg.Readers)
			for ri := 1; ri <= sc.cfg.Readers; ri++ {
				reader, err := reg.Reader(ri)
				if err != nil {
					t.Fatal(err)
				}
				go func(ri int, reader Reader) {
					pipelinedReads(ctx, t, rec, types.Reader(ri), reader, readsPerReader, sc.cfg.PipelineDepth)
					readersDone <- struct{}{}
				}(ri, reader)
			}
			<-done
			for i := 0; i < sc.cfg.Readers; i++ {
				<-readersDone
			}

			report, err := atomicity.CheckSWMR(rec.History())
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK {
				t.Fatalf("pipelined history not atomic:\n%s", report)
			}
			if report.Reads == 0 || report.Writes == 0 {
				t.Fatalf("degenerate history: %d writes / %d reads", report.Writes, report.Reads)
			}
		})
	}
}

// TestPipelinedWritesFIFO is the per-writer FIFO regression test: writes
// submitted through a deep pipeline must be applied in submission order —
// versions assigned sequentially, no reader ever observing them out of
// order, and the final state carrying the last submitted value.
func TestPipelinedWritesFIFO(t *testing.T) {
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast, ServerWorkers: 4, PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg, err := store.Register("fifo")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	const writes = 60
	// A concurrent reader polls while the pipelined writes flow: versions
	// must never go backwards, and version k must always carry value "fv<k>".
	stopReads := make(chan struct{})
	readsDone := make(chan error, 1)
	go func() {
		var floor int64
		for {
			select {
			case <-stopReads:
				readsDone <- nil
				return
			default:
			}
			res, err := reader.Read(ctx)
			if err != nil {
				readsDone <- fmt.Errorf("concurrent read: %w", err)
				return
			}
			if res.Version < floor {
				readsDone <- fmt.Errorf("version went backwards: %d after %d", res.Version, floor)
				return
			}
			floor = res.Version
			if res.Version > 0 {
				if want := fmt.Sprintf("fv%d", res.Version); string(res.Value) != want {
					readsDone <- fmt.Errorf("version %d carries %q, want %q", res.Version, res.Value, want)
					return
				}
			}
		}
	}()

	futures := make([]*WriteFuture, 0, writes)
	for i := 1; i <= writes; i++ {
		f, err := reg.Writer().WriteAsync(ctx, []byte(fmt.Sprintf("fv%d", i)))
		if err != nil {
			t.Fatalf("WriteAsync %d: %v", i, err)
		}
		futures = append(futures, f)
	}
	for i, f := range futures {
		if err := f.Result(ctx); err != nil {
			t.Fatalf("write %d: %v", i+1, err)
		}
	}
	close(stopReads)
	if err := <-readsDone; err != nil {
		t.Fatal(err)
	}

	// All writes completed: the register holds the LAST submission, at the
	// version equal to the submission count (timestamps were taken in
	// submission order with no gaps).
	res, err := reader.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != writes || string(res.Value) != fmt.Sprintf("fv%d", writes) {
		t.Fatalf("final state = %q@%d, want %q@%d", res.Value, res.Version, fmt.Sprintf("fv%d", writes), writes)
	}
}

// TestFutureResolvesStoreClosedAfterClose is the regression test for futures
// outliving their store: an operation left in flight when Store.Close runs
// must resolve with ErrStoreClosed — promptly, not by waiting out the
// caller's context against a dead network.
func TestFutureResolvesStoreClosedAfterClose(t *testing.T) {
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1, PipelineDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg, err := store.Register("k")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Strand the operations: acknowledgements to the clients are held, so
	// the futures can only ever resolve through Close.
	net, err := store.Network()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		net.Hold(types.Server(i), types.Reader(1))
		net.Hold(types.Server(i), types.Writer())
	}
	rf, err := reader.ReadAsync(ctx) // no deadline: only Close can end it
	if err != nil {
		t.Fatal(err)
	}
	wf, err := reg.Writer().WriteAsync(ctx, []byte("stranded"))
	if err != nil {
		t.Fatal(err)
	}

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := rf.Result(ctx); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("read future after Close = %v, want ErrStoreClosed", err)
	}
	if err := wf.Result(ctx); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("write future after Close = %v, want ErrStoreClosed", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("futures took %v to resolve after Close, want prompt", elapsed)
	}
	// New submissions fail fast too.
	if _, err := reader.ReadAsync(ctx); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("ReadAsync after Close = %v, want ErrStoreClosed", err)
	}
	if _, err := reg.Writer().WriteAsync(ctx, []byte("x")); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("WriteAsync after Close = %v, want ErrStoreClosed", err)
	}
}

// TestCancelledReadLeavesSiblingsRunning is the isolation regression test:
// cancelling one in-flight read's context must abort exactly that read —
// its pipelined siblings on the SAME handle keep their state and complete
// once their acknowledgements arrive.
func TestCancelledReadLeavesSiblingsRunning(t *testing.T) {
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1, PipelineDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg, err := store.Register("k")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := reg.Writer().Write(ctx, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Hold every acknowledgement so both reads stay in flight, then cancel
	// only the first.
	net, err := store.Network()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		net.Hold(types.Server(i), types.Reader(1))
	}
	ctxA, cancelA := context.WithCancel(ctx)
	defer cancelA()
	fA, err := reader.ReadAsync(ctxA)
	if err != nil {
		t.Fatal(err)
	}
	fB, err := reader.ReadAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cancelA()
	if _, err := fA.Result(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read = %v, want context.Canceled", err)
	}
	select {
	case <-fB.Done():
		res, rerr := fB.Result(ctx)
		t.Fatalf("sibling read resolved while acks were held: %v %v", res, rerr)
	case <-time.After(50 * time.Millisecond):
	}

	// Releasing the held acknowledgements completes the sibling — including
	// the cancelled read's stale acks flowing past it harmlessly.
	for i := 1; i <= 4; i++ {
		net.Release(types.Server(i), types.Reader(1))
	}
	res, err := fB.Result(ctx)
	if err != nil {
		t.Fatalf("sibling read after release: %v", err)
	}
	if string(res.Value) != "v1" {
		t.Fatalf("sibling read = %q, want v1", res.Value)
	}
}

// TestPipelinedReadsAllProtocols smoke-tests the async read path end to end
// for every registered protocol, including the depth-limiter (submissions
// beyond the depth block instead of failing) and result correctness.
func TestPipelinedReadsAllProtocols(t *testing.T) {
	protocols := []Protocol{ProtocolFast, ProtocolFastByzantine, ProtocolABD, ProtocolMaxMin, ProtocolRegular}
	for _, proto := range protocols {
		t.Run(string(proto), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: proto, PipelineDepth: 4}
			if proto == ProtocolFastByzantine {
				cfg = Config{Servers: 7, Faulty: 1, Malicious: 1, Readers: 1, Protocol: proto, PipelineDepth: 4}
			}
			store, err := NewStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			reg, err := store.Register("smoke")
			if err != nil {
				t.Fatal(err)
			}
			reader, err := reg.Reader(1)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := reg.Writer().Write(ctx, []byte("seed")); err != nil {
				t.Fatal(err)
			}

			const ops = 32
			futures := make([]*ReadFuture, 0, ops)
			for i := 0; i < ops; i++ {
				f, err := reader.ReadAsync(ctx)
				if err != nil {
					t.Fatalf("ReadAsync %d: %v", i, err)
				}
				futures = append(futures, f)
			}
			for i, f := range futures {
				res, err := f.Result(ctx)
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if string(res.Value) != "seed" {
					t.Fatalf("read %d = %q, want seed", i, res.Value)
				}
			}
		})
	}
}
