// Package workload is the open-loop load generator (RunOpenLoop), the rate
// sweep with its knee finder (RunSweep, Knee) and the seeded generators both
// draw from (Rand, Zipf, Arrivals).
//
// A closed-loop harness measures "how fast can N blocked workers go" — its
// workers slow down exactly when the system does, so it can never observe
// queueing collapse. An open-loop generator instead schedules arrivals on a
// clock at a target offered rate, independent of how the system is coping,
// and measures each operation's latency from its INTENDED arrival time, not
// from when the generator finally got around to submitting it. That is the
// coordinated-omission discipline: if the system stalls for a second, the
// ~rate×1s operations scheduled during the stall each charge the stall to
// their own latency instead of silently vanishing from the record.
package workload

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fastread/internal/protoutil"
	"fastread/internal/stats"
)

// OpenLoopConfig parameterises one fixed-rate open-loop run.
type OpenLoopConfig struct {
	// Rate is the offered load in operations per second. Required.
	Rate float64
	// Duration is how long arrivals are generated for. Required.
	Duration time.Duration
	// Poisson selects exponential inter-arrival gaps (a large independent
	// client population); false selects perfectly paced fixed gaps.
	Poisson bool
	// Seed pins the arrival and key streams; runs with equal seeds offer
	// an identical schedule.
	Seed int64
	// Keys is the number of distinct registers touched. Default 1.
	Keys int
	// ZipfS is the zipfian popularity exponent across keys; 0 = uniform.
	ZipfS float64
	// ReadFraction in [0,1] is the probability an arrival is a read.
	ReadFraction float64
	// Workers is the number of submitter goroutines arrivals are sharded
	// over (by key, so per-key order is preserved). Default min(Keys,
	// 4×GOMAXPROCS).
	Workers int
	// OpTimeout bounds each operation, measured from its INTENDED arrival —
	// an operation that spends its whole budget queueing times out even if
	// it was submitted late. Default 5s.
	OpTimeout time.Duration
	// Backlog bounds the generator's own pending-arrival queue per worker.
	// When a worker is wedged (e.g. admission control is off and submission
	// blocks), arrivals beyond this bound are counted as Overrun rather
	// than accumulated without bound. Default 65536.
	Backlog int
}

func (c *OpenLoopConfig) normalize() error {
	if c.Rate <= 0 {
		return fmt.Errorf("workload: open-loop rate must be positive, got %g", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("workload: open-loop duration must be positive, got %v", c.Duration)
	}
	if c.ReadFraction < 0 || c.ReadFraction > 1 {
		return fmt.Errorf("workload: read fraction %g outside [0,1]", c.ReadFraction)
	}
	if c.Keys <= 0 {
		c.Keys = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
		if c.Workers > c.Keys {
			c.Workers = c.Keys
		}
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.Backlog <= 0 {
		c.Backlog = 65536
	}
	return nil
}

// OpenLoopClient adapts a store to the generator. Submit functions start an
// asynchronous operation against key (an index in [0, Keys)) and return a
// wait function resolving its completion; seq is a process-unique sequence
// number the client may embed in written values. Both are called
// concurrently from many workers. A submit error fails the operation
// immediately (protoutil.ErrOverloaded is classified as shed, anything else
// as failed).
type OpenLoopClient struct {
	SubmitWrite func(ctx context.Context, key int, seq int64) (wait func(context.Context) error, err error)
	SubmitRead  func(ctx context.Context, key int) (wait func(context.Context) error, err error)
}

// OpenLoopResult is the exact accounting of one run: every generated arrival
// lands in exactly one of Completed, Overloaded, Timeouts, Failed or
// Overrun, so Offered always equals their sum — the property the overload
// tests assert to prove no operation is silently lost.
type OpenLoopResult struct {
	Offered    int64 // arrivals generated on schedule
	Completed  int64 // operations that finished successfully
	Overloaded int64 // shed fast with ErrOverloaded (admission control)
	Timeouts   int64 // exceeded OpTimeout from their intended arrival
	Failed     int64 // any other error
	Overrun    int64 // arrivals the generator itself had to drop (backlog full)

	Elapsed time.Duration    // scheduled window (== config Duration)
	Hist    *stats.Histogram // latency vs intended arrival, completed ops only
}

// OfferedRate returns the realised offered load in ops/sec.
func (r OpenLoopResult) OfferedRate() float64 {
	return float64(r.Offered) / r.Elapsed.Seconds()
}

// Goodput returns completed ops/sec over the scheduled window.
func (r OpenLoopResult) Goodput() float64 {
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// openLoopWorker owns one shard of the keyspace. Completion goroutines of
// the same worker share its histogram under mu; worker count spreads the
// contention.
type openLoopWorker struct {
	queue chan openLoopOp

	mu         sync.Mutex
	hist       *stats.Histogram
	completed  int64
	overloaded int64
	timeouts   int64
	failed     int64
}

type openLoopOp struct {
	key      int
	read     bool
	seq      int64
	intended time.Time
}

func (w *openLoopWorker) account(err error, opCtx context.Context, latency time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case err == nil:
		w.completed++
		w.hist.Record(latency)
	case errors.Is(err, protoutil.ErrOverloaded):
		w.overloaded++
	case opCtx.Err() != nil && errors.Is(opCtx.Err(), context.DeadlineExceeded):
		w.timeouts++
	default:
		w.failed++
	}
}

// RunOpenLoop drives one fixed-rate open-loop run and returns its exact
// accounting. Cancelling ctx stops arrival generation early; already
// submitted operations still resolve.
func RunOpenLoop(ctx context.Context, cfg OpenLoopConfig, client OpenLoopClient) (OpenLoopResult, error) {
	if err := cfg.normalize(); err != nil {
		return OpenLoopResult{}, err
	}
	if client.SubmitWrite == nil && cfg.ReadFraction < 1 {
		return OpenLoopResult{}, errors.New("workload: write mix requested but SubmitWrite is nil")
	}
	if client.SubmitRead == nil && cfg.ReadFraction > 0 {
		return OpenLoopResult{}, errors.New("workload: read mix requested but SubmitRead is nil")
	}

	workers := make([]*openLoopWorker, cfg.Workers)
	perWorkerBacklog := cfg.Backlog / cfg.Workers
	if perWorkerBacklog < 16 {
		perWorkerBacklog = 16
	}
	for i := range workers {
		workers[i] = &openLoopWorker{
			queue: make(chan openLoopOp, perWorkerBacklog),
			hist:  stats.NewHistogram(),
		}
	}

	var (
		submitWG sync.WaitGroup // worker loops
		opWG     sync.WaitGroup // in-flight completion waits
		seq      int64          // written-value sequence, pacer-owned
	)
	for i := range workers {
		w := workers[i]
		submitWG.Add(1)
		go func() {
			defer submitWG.Done()
			for op := range w.queue {
				opCtx, cancel := context.WithDeadline(ctx, op.intended.Add(cfg.OpTimeout))
				var (
					wait func(context.Context) error
					err  error
				)
				if op.read {
					wait, err = client.SubmitRead(opCtx, op.key)
				} else {
					wait, err = client.SubmitWrite(opCtx, op.key, op.seq)
				}
				if err != nil {
					w.account(err, opCtx, 0)
					cancel()
					continue
				}
				op := op
				opWG.Add(1)
				go func() {
					defer opWG.Done()
					defer cancel()
					err := wait(opCtx)
					w.account(err, opCtx, time.Since(op.intended))
				}()
			}
		}()
	}

	rng := NewRand(cfg.Seed)
	arrivals := NewArrivals(NewRand(cfg.Seed+1), cfg.Rate, cfg.Poisson)
	zipf := NewZipf(NewRand(cfg.Seed+2), cfg.Keys, cfg.ZipfS)

	var offered, overrun int64
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
pace:
	for {
		next = next.Add(arrivals.Next())
		if next.After(deadline) {
			break
		}
		// Sleep only when ahead of schedule; when behind, arrivals fire
		// back-to-back with past intended timestamps — that burst IS the
		// offered load the schedule demands, not an error.
		if gap := time.Until(next); gap > 0 {
			select {
			case <-time.After(gap):
			case <-ctx.Done():
				break pace
			}
		} else if ctx.Err() != nil {
			break
		}
		seq++
		op := openLoopOp{
			key:      zipf.Next(),
			read:     rng.Float64() < cfg.ReadFraction,
			seq:      seq,
			intended: next,
		}
		offered++
		w := workers[op.key%cfg.Workers]
		select {
		case w.queue <- op:
		default:
			// The worker is wedged and its backlog is full. Dropping here
			// (counted) keeps the generator itself from becoming an
			// unbounded queue; the drop is still an offered arrival.
			overrun++
		}
	}
	for _, w := range workers {
		close(w.queue)
	}
	submitWG.Wait()
	opWG.Wait()

	res := OpenLoopResult{
		Offered: offered,
		Overrun: overrun,
		Elapsed: cfg.Duration,
		Hist:    stats.NewHistogram(),
	}
	for _, w := range workers {
		res.Completed += w.completed
		res.Overloaded += w.overloaded
		res.Timeouts += w.timeouts
		res.Failed += w.failed
		res.Hist.Merge(w.hist)
	}
	return res, nil
}
