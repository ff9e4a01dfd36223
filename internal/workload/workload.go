// Package workload drives register deployments with concurrent readers and a
// writer, records every operation into a history, injects crashes according
// to a schedule, and measures latency and round-trip counts — on the real
// scheduler and the wall clock, which is what the root integration test
// (TestWorkloadConsistencyPerProtocol) wants from it. The paper's tables do
// not run here: they are virtual-clock scenarios (internal/experiments).
package workload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fastread/internal/fault"
	"fastread/internal/history"
	"fastread/internal/stats"
	"fastread/internal/types"
)

// Writer is the minimal write interface a protocol must expose to be driven
// by a workload.
type Writer interface {
	Write(ctx context.Context, value types.Value) error
}

// Reader is the minimal read interface a protocol must expose to be driven
// by a workload. It returns the value, its logical timestamp and the number
// of round-trips the read used.
type Reader interface {
	Read(ctx context.Context) (types.Value, types.Timestamp, int, error)
}

// WriterFunc adapts a function to the Writer interface.
type WriterFunc func(ctx context.Context, value types.Value) error

// Write implements Writer.
func (f WriterFunc) Write(ctx context.Context, value types.Value) error { return f(ctx, value) }

// ReaderFunc adapts a function to the Reader interface.
type ReaderFunc func(ctx context.Context) (types.Value, types.Timestamp, int, error)

// Read implements Reader.
func (f ReaderFunc) Read(ctx context.Context) (types.Value, types.Timestamp, int, error) {
	return f(ctx)
}

// Config parameterises a workload run.
type Config struct {
	// Writes is the number of write operations the writer performs; values
	// are unique ("<prefix>1", "<prefix>2", ...).
	Writes int
	// ReadsPerReader is the number of reads each reader performs.
	ReadsPerReader int
	// ValuePrefix prefixes every written value; defaults to "v".
	ValuePrefix string
	// ValuePadding pads written values to this many bytes (0 = no padding),
	// so experiments can control payload size.
	ValuePadding int
	// WriterThinkTime is the pause between consecutive writes.
	WriterThinkTime time.Duration
	// ReaderThinkTime is the pause between consecutive reads of one reader.
	ReaderThinkTime time.Duration
	// Crashes, if non-nil, is consulted after every completed operation; due
	// crash events are applied through CrashFn.
	Crashes *fault.CrashSchedule
	// CrashFn applies a crash to the deployment (typically
	// (*transport.InMemNetwork).Crash).
	CrashFn func(types.ProcessID)
	// OpTimeout bounds each individual operation; 0 means 10 seconds.
	OpTimeout time.Duration
}

// Clients bundles the register handles the workload drives.
type Clients struct {
	Writer  Writer
	Readers []Reader
}

// Result is everything a workload run measured.
type Result struct {
	// History contains every operation with its real-time bounds.
	History history.History
	// WriteLatency and ReadLatency summarise per-operation latency.
	WriteLatency stats.LatencySummary
	ReadLatency  stats.LatencySummary
	// ReadRounds is the average number of round-trips per read as reported
	// by the protocol.
	ReadRounds float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// CompletedWrites and CompletedReads count successful operations.
	CompletedWrites int
	CompletedReads  int
	// FailedOps counts operations that returned an error (e.g. because the
	// run crashed more servers than the protocol tolerates).
	FailedOps int
	// Throughput is completed operations per second.
	Throughput float64
}

// ErrNoClients indicates a workload with neither writer nor readers.
var ErrNoClients = errors.New("workload: no clients to drive")

// Run executes the workload and returns its measurements. The writer and all
// readers run concurrently; the run ends when every client has finished its
// quota.
func Run(ctx context.Context, cfg Config, clients Clients) (Result, error) {
	if clients.Writer == nil && len(clients.Readers) == 0 {
		return Result{}, ErrNoClients
	}
	if cfg.ValuePrefix == "" {
		cfg.ValuePrefix = "v"
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = 10 * time.Second
	}

	recorder := history.NewRecorder()
	writeLat := stats.NewLatencyRecorder(cfg.Writes)
	readLats := make([]*stats.LatencyRecorder, len(clients.Readers))
	for i := range readLats {
		readLats[i] = stats.NewLatencyRecorder(cfg.ReadsPerReader)
	}

	var (
		completedOps int64
		failedOps    int64
		roundTotal   int64
		roundReads   int64
		crashMu      sync.Mutex
	)
	applyCrashes := func() {
		if cfg.Crashes == nil || cfg.CrashFn == nil {
			return
		}
		crashMu.Lock()
		defer crashMu.Unlock()
		for _, victim := range cfg.Crashes.Fire(int(atomic.LoadInt64(&completedOps))) {
			cfg.CrashFn(victim)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup

	if clients.Writer != nil && cfg.Writes > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= cfg.Writes; i++ {
				value := makeValue(cfg.ValuePrefix, i, cfg.ValuePadding)
				opID := recorder.Invoke(types.Writer(), history.OpWrite, value)
				opCtx, cancel := context.WithTimeout(ctx, cfg.OpTimeout)
				opStart := time.Now()
				err := clients.Writer.Write(opCtx, value)
				cancel()
				if err != nil {
					recorder.Fail(opID)
					atomic.AddInt64(&failedOps, 1)
					if ctx.Err() != nil {
						return
					}
					continue
				}
				writeLat.Record(time.Since(opStart))
				recorder.Return(opID, nil, types.Timestamp(i))
				atomic.AddInt64(&completedOps, 1)
				applyCrashes()
				if cfg.WriterThinkTime > 0 {
					time.Sleep(cfg.WriterThinkTime)
				}
			}
		}()
	}

	for idx, reader := range clients.Readers {
		wg.Add(1)
		go func(idx int, reader Reader) {
			defer wg.Done()
			proc := types.Reader(idx + 1)
			for i := 0; i < cfg.ReadsPerReader; i++ {
				opID := recorder.Invoke(proc, history.OpRead, nil)
				opCtx, cancel := context.WithTimeout(ctx, cfg.OpTimeout)
				opStart := time.Now()
				value, ts, rounds, err := reader.Read(opCtx)
				cancel()
				if err != nil {
					recorder.Fail(opID)
					atomic.AddInt64(&failedOps, 1)
					if ctx.Err() != nil {
						return
					}
					continue
				}
				readLats[idx].Record(time.Since(opStart))
				atomic.AddInt64(&roundTotal, int64(rounds))
				atomic.AddInt64(&roundReads, 1)
				recorder.Return(opID, value, ts)
				atomic.AddInt64(&completedOps, 1)
				applyCrashes()
				if cfg.ReaderThinkTime > 0 {
					time.Sleep(cfg.ReaderThinkTime)
				}
			}
		}(idx, reader)
	}

	wg.Wait()
	elapsed := time.Since(start)

	merged := stats.NewLatencyRecorder(0)
	for _, r := range readLats {
		merged.Merge(r)
	}

	result := Result{
		History:         recorder.History(),
		WriteLatency:    writeLat.Summary(),
		ReadLatency:     merged.Summary(),
		Elapsed:         elapsed,
		CompletedWrites: countCompleted(recorder.History(), history.OpWrite),
		CompletedReads:  countCompleted(recorder.History(), history.OpRead),
		FailedOps:       int(atomic.LoadInt64(&failedOps)),
	}
	if roundReads > 0 {
		result.ReadRounds = float64(roundTotal) / float64(roundReads)
	}
	result.Throughput = stats.Throughput(result.CompletedWrites+result.CompletedReads, elapsed)
	return result, nil
}

// makeValue builds the i-th written value, optionally padded to a fixed
// size.
func makeValue(prefix string, i, padding int) types.Value {
	v := fmt.Sprintf("%s%d", prefix, i)
	if padding > len(v) {
		buf := make([]byte, padding)
		copy(buf, v)
		for j := len(v); j < padding; j++ {
			buf[j] = '.'
		}
		return buf
	}
	return types.Value(v)
}

// countCompleted counts completed, non-failed operations of the given kind.
func countCompleted(h history.History, kind history.OpKind) int {
	n := 0
	for _, op := range h {
		if op.Kind == kind && op.Completed && !op.Failed {
			n++
		}
	}
	return n
}
