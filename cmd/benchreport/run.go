package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fastread"
)

// runOpts sizes one workload run. A run is: repeated cold set-ups -> one
// untimed warm-up round -> timed rounds of a FIXED operation count, with a
// forced GC between rounds outside the timed window.
type runOpts struct {
	seed int64
	// budget is how long the timed rounds may take; rounds run until it is
	// spent and at least minRounds have run — but never past 1.5 x budget
	// once hardMinRounds have run, so a box that has turned pathologically
	// slow cannot make a run take minutes. rounds > 0 runs exactly that many
	// instead (the smoke test, and -rounds).
	budget    time.Duration
	minRounds int
	rounds    int
	ops       int // > 0 overrides the workload's round size (smoke test only)
	// The cold set-up is repeated at least setupReps times and for at
	// least setupFor.
	setupReps int
	setupFor  time.Duration
	workDir   string // scratch space for durable data, inside the checkout
}

// hardMinRounds is the fewest timed rounds a time-budgeted run ever reports
// on (see runOpts.budget).
const hardMinRounds = 8

// runResult is everything one workload run measured.
type runResult struct {
	metrics    results // the seven end-to-end metrics and every store.*/durable.* per-layer metric
	attempted  int     // operations submitted in timed rounds
	failed     int     // operations that returned an error, plus correctness violations
	firstErr   error
	rounds     int
	timed      time.Duration
	streamHash uint64
}

// setupTiming splits one cold set-up.
type setupTiming struct{ newStore, register, total time.Duration }

// setUp performs one cold set-up: NewStore, Register every key, then one
// write and one read per reader handle per key, so every handle, route and
// connection exists before the first measured operation.
func setUp(ctx context.Context, sp *spec, dataDir string) (*storeTarget, setupTiming, error) {
	cfg := fastread.Config{
		Servers: sp.Servers, Faulty: sp.Faulty, Readers: sp.Readers,
		Protocol:  fastread.ProtocolFast,
		Transport: fastread.InMemory(),
	}
	if sp.TCP {
		cfg.Transport = fastread.TCP(nil)
	}
	if sp.Depth > 1 {
		cfg.PipelineDepth = sp.Depth
	}
	if sp.Durable {
		cfg.DataDir = dataDir
		// SimulateCrash makes every server stop discard what was not
		// fsynced, which is what the crash-restart check relies on.
		cfg.Durability = fastread.DurabilityOptions{Fsync: fastread.FsyncAlways, SimulateCrash: true}
	}

	var tm setupTiming
	start := time.Now()
	store, err := fastread.NewStore(cfg)
	if err != nil {
		return nil, tm, fmt.Errorf("NewStore: %w", err)
	}
	tm.newStore = time.Since(start)
	t := &storeTarget{
		store:   store,
		writers: make([]fastread.Writer, sp.Keys),
		readers: make([][]fastread.Reader, sp.Keys),
	}
	for k := range t.writers {
		reg, err := store.Register(keyName(k))
		if err != nil {
			_ = store.Close()
			return nil, tm, fmt.Errorf("Register %s: %w", keyName(k), err)
		}
		t.writers[k], t.readers[k] = reg.Writer(), reg.Readers()
	}
	tm.register = time.Since(start) - tm.newStore

	if err := preload(ctx, sp, t); err != nil {
		_ = store.Close()
		return nil, tm, err
	}
	tm.total = time.Since(start)
	return t, tm, nil
}

// preload writes every key once and reads it once through each of its reader
// handles, checking the results; afterwards every key is at version 1.
func preload(ctx context.Context, sp *spec, t target) error {
	chk := newChecker(sp.Keys, 0)
	value := make([]byte, valueSize)
	for k := 0; k < sp.Keys; k++ {
		version := chk.submitWrite(k, value)
		if err := t.write(ctx, k, value); err != nil {
			return fmt.Errorf("preload write %s: %w", keyName(k), err)
		}
		chk.completeWrite(k, version)
		for r := 1; r <= sp.Readers; r++ {
			out, err := t.read(ctx, k, r)
			if err == nil {
				err = chk.completeRead(k, chk.submitRead(k), out)
			}
			if err != nil {
				return fmt.Errorf("preload read %s: %w", keyName(k), err)
			}
		}
	}
	return nil
}

// timedRun runs one workload end to end and computes its metrics.
func timedRun(ctx context.Context, sp *spec, o runOpts) (*runResult, error) {
	ops := sp.Ops
	if o.ops > 0 {
		ops = o.ops
	}
	res := &runResult{metrics: results{}, streamHash: streamHash(sp, o.seed, 2, ops)}

	// Set-up phase: repeated cold set-ups; the last one is the deployment
	// the run then uses. Close and directory removal are not timed.
	var setupS, newStoreMS, registerUS []float64
	var tgt *storeTarget
	setupStart := time.Now()
	for rep := 0; ; rep++ {
		dir := filepath.Join(o.workDir, fmt.Sprintf("data-%d", rep))
		t, tm, err := setUp(ctx, sp, dir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, tm.total.Seconds())
		newStoreMS = append(newStoreMS, float64(tm.newStore)/1e6)
		registerUS = append(registerUS, float64(tm.register)/1e3/float64(sp.Keys))
		if rep+1 >= o.setupReps && time.Since(setupStart) >= o.setupFor {
			tgt = t
			defer os.RemoveAll(dir)
			break
		}
		if err := t.close(); err != nil {
			return nil, fmt.Errorf("close after set-up: %w", err)
		}
		os.RemoveAll(dir)
	}
	defer tgt.close()

	streams := newStreams(sp, o.seed)
	clients := make([]*client, sp.Clients)
	for c := range clients {
		clients[c] = newClient(tgt, streams[c], newChecker(sp.Keys, 1), sp.Depth, ops/sp.Clients)
	}
	var scratch latScratch

	// Warm-up round: untimed for the end-to-end metrics, but reported, so
	// set-up work deferred to first use still shows somewhere.
	runtime.GC()
	warmup, _, _ := runRound(ctx, clients, &scratch)

	var (
		opsPerS, readP50, readP99, writeP50, writeP99, readP999, cpuUS []float64
		mallocs, allocBytes, gcPauseNS                                 uint64
		gcCycles                                                       uint32
		completed                                                      int
		m0, m1                                                         runtime.MemStats
	)
	before := tgt.store.Stats()
	timedStart := time.Now()
	for r := 0; ; r++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		wall, reads, writes := runRound(ctx, clients, &scratch)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)

		n := len(reads) + len(writes)
		res.attempted += ops / sp.Clients * sp.Clients
		completed += n
		mallocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		gcCycles += m1.NumGC - m0.NumGC
		gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		if n > 0 {
			opsPerS = append(opsPerS, float64(n)/wall.Seconds())
			cpuUS = append(cpuUS, float64(cpu)/1e3/float64(n))
		}
		if len(reads) > 0 {
			readP50 = append(readP50, float64(percentile(reads, 50))/1e3)
			readP99 = append(readP99, float64(percentile(reads, 99))/1e3)
			readP999 = append(readP999, float64(percentile(reads, 99.9))/1e3)
		}
		if len(writes) > 0 {
			writeP50 = append(writeP50, float64(percentile(writes, 50))/1e3)
			writeP99 = append(writeP99, float64(percentile(writes, 99))/1e3)
		}
		res.rounds = r + 1
		if o.rounds > 0 {
			if res.rounds >= o.rounds {
				break
			}
		} else if spent := time.Since(timedStart); (res.rounds >= o.minRounds && spent >= o.budget) ||
			(res.rounds >= hardMinRounds && spent >= o.budget*3/2) {
			break
		}
	}
	res.timed = time.Since(timedStart)
	after := tgt.store.Stats()

	var restartMS []float64
	if sp.Durable {
		var err error
		if restartMS, err = crashRestartCheck(ctx, tgt, sp, clients); err != nil {
			return nil, err
		}
	}
	failed, violations, first := tally(clients)
	res.failed, res.firstErr = failed+violations, first

	m := res.metrics
	perOp := func(delta float64) float64 { return delta / float64(max(completed, 1)) }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	e := func(name string) metricDef { return lookup(endToEnd, name) }
	l := func(name string) metricDef { return lookup(perWorkloadLayer, name) }

	m.fromSamples(e("setup_s"), setupS)
	m.fromSamples(e("ops_per_s"), opsPerS)
	m.fromSamples(e("read_p50_us"), readP50)
	m.fromSamples(e("write_p50_us"), writeP50)
	m.scalar(e("allocs_per_op"), perOp(float64(mallocs)))
	m.scalar(e("alloc_bytes_per_op"), perOp(float64(allocBytes)))
	m.scalar(e("peak_rss_mb"), peakRSSMB())

	reads, writes := after.Reads-before.Reads, after.Writes-before.Writes
	m.scalar(l("store.msgs_per_op"), perOp(float64(after.DeliveredMsgs-before.DeliveredMsgs)))
	m.scalar(l("store.frames_per_op"), perOp(float64(after.FramesDelivered-before.FramesDelivered)))
	m.scalar(l("store.read_rounds_per_op"), ratio(after.ReadRoundTrips-before.ReadRoundTrips, reads))
	m.scalar(l("store.write_rounds_per_op"), ratio(after.WriteRoundTrips-before.WriteRoundTrips, writes))
	m.scalar(l("store.fallback_read_share"), ratio(after.FallbackReads-before.FallbackReads, reads))
	m.scalar(l("store.server_mutations_per_op"), perOp(float64(after.ServerMutations-before.ServerMutations)))
	m.scalar(l("store.dropped_msgs"), float64(after.DroppedMsgs-before.DroppedMsgs))
	m.scalar(l("store.shed_drops"), float64(after.ShedDrops-before.ShedDrops))
	m.scalar(l("store.mailbox_high_water"), float64(after.MailboxHighWater))
	m.fromSamples(l("store.new_store_ms"), newStoreMS)
	m.fromSamples(l("store.register_us_per_key"), registerUS)
	m.scalar(l("store.warmup_s"), warmup.Seconds())
	m.fromSamples(l("store.cpu_us_per_op"), cpuUS)
	m.fromSamples(l("store.read_p99_us"), readP99)
	m.fromSamples(l("store.write_p99_us"), writeP99)
	m.fromSamples(l("store.read_p999_us"), readP999)
	m.scalar(l("store.gc_cycles"), float64(gcCycles))
	m.scalar(l("store.gc_pause_ms"), float64(gcPauseNS)/1e6)
	m.scalar(l("durable.appends_per_op"), perOp(float64(after.Durable.Appends-before.Durable.Appends)))
	m.scalar(l("durable.fsyncs_per_op"), perOp(float64(after.Durable.Fsyncs-before.Durable.Fsyncs)))
	m.scalar(l("durable.snapshots"), float64(after.Durable.Snapshots-before.Durable.Snapshots))
	m.scalar(l("durable.append_errors"), float64(after.Durable.AppendErrors-before.Durable.AppendErrors))
	m.fromSamples(l("durable.restart_ms"), restartMS)
	return res, nil
}

// crashRestartCheck restarts every server in turn — SimulateCrash discards
// whatever its log had not fsynced — and then re-reads every key: with
// Fsync "always" no acknowledged write may be missing. It returns the
// per-server restart times.
func crashRestartCheck(ctx context.Context, tgt *storeTarget, sp *spec, clients []*client) ([]float64, error) {
	var restartMS []float64
	for i := 1; i <= sp.Servers; i++ {
		start := time.Now()
		if err := tgt.store.RestartServer(i); err != nil {
			return nil, fmt.Errorf("restart server %d: %w", i, err)
		}
		restartMS = append(restartMS, float64(time.Since(start))/1e6)
	}
	for k := 0; k < sp.Keys; k++ {
		c := clients[k%sp.Clients]
		out, err := tgt.read(ctx, k, 1)
		if err != nil {
			c.fail(fmt.Errorf("read %s after restart: %w", keyName(k), err))
			continue
		}
		_ = c.chk.completeRead(k, c.chk.submitRead(k), out)
	}
	return restartMS, nil
}
