package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fastread"
	"fastread/internal/atomicity"
	"fastread/internal/history"
	"fastread/internal/seam"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// Replayable completes cfg into a deployment that replays byte for byte on
// clock — the one recipe the scenario runner and the lower-bound stage
// (internal/adversary) deploy by. It builds the deployment's in-memory
// network on clock, shaped by opts, and returns it: its caller owns it, to
// isolate processes and hold links on. On the clock every consumer is
// push-delivered: the event that delivers a message runs its server handler
// or client completion on the driver goroutine, so combined with the clock's
// one-event-at-a-time delivery there is no scheduling freedom anywhere in a
// run, under any goroutine schedule. Nonces read the virtual clock, so a
// client incarnation created later in virtual time draws a strictly larger
// initial counter and no wall-clock input reaches the run.
func Replayable(cfg fastread.Config, clock *transport.VirtualClock, opts ...transport.InMemOption) (fastread.Config, *transport.InMemNetwork) {
	net := transport.NewInMemNetwork(append(opts, transport.WithClock(clock))...)
	cfg.NonceSource = func() int64 { return clock.Now().UnixMicro() }
	cfg.Transport = seam.InMemory(net).(fastread.Transport)
	return cfg, net
}

// Result is one simulation run's complete outcome.
type Result struct {
	// Scenario and Seed identify the run; together they determine it.
	Scenario Scenario
	Seed     int64
	// SimTime is how much virtual time elapsed; Wall how much real time.
	SimTime time.Duration
	Wall    time.Duration
	// Ops counts submitted operations; Completed the ones that resolved with
	// a result, FailedOps the ones that resolved with an error, TimedOut the
	// ones aborted by their virtual-time deadline, RestartAborts the ones
	// deliberately killed with a restarting reader incarnation, EndAborts
	// the ones still unresolved when the event queue drained (should be 0 —
	// every operation has a timeout event), SubmitSkips the submissions
	// skipped because their handle was at pipeline depth.
	Ops, Completed, FailedOps, TimedOut, RestartAborts, EndAborts, SubmitSkips int
	// Stats is the store's counters taken at quiescence, after the last event
	// ran: rounds per operation, server mutations, the network's deepest
	// inbound queue.
	Stats fastread.Stats
	// Histories holds the per-key recorded histories.
	Histories map[string]history.History
	// Check is the per-key correctness verdict over Histories.
	Check atomicity.KeyedReport
	// RunErr is a harness-level failure (deployment error, clock stall,
	// checker error) as opposed to a history violation.
	RunErr error
}

// Failed reports whether the run found anything wrong: a harness error, a
// history violation, or — for scenarios that promise liveness — operations
// that could not complete.
func (r *Result) Failed() bool {
	if r.RunErr != nil || !r.Check.OK {
		return true
	}
	if r.Scenario.ExpectAllComplete && (r.TimedOut > 0 || r.EndAborts > 0 || r.FailedOps > 0) {
		return true
	}
	return false
}

// FailureSummary renders a one-line explanation of a failed run.
func (r *Result) FailureSummary() string {
	switch {
	case r.RunErr != nil:
		return fmt.Sprintf("harness error: %v", r.RunErr)
	case !r.Check.OK:
		var parts []string
		for _, key := range r.Check.FailedKeys() {
			rep := r.Check.Reports[key]
			v := rep.Violations[0]
			parts = append(parts, fmt.Sprintf("%s: %s (%d violations)", key, v.Message, len(rep.Violations)))
		}
		return "history violation: " + strings.Join(parts, "; ")
	case r.TimedOut > 0 || r.EndAborts > 0 || r.FailedOps > 0:
		return fmt.Sprintf("liveness: %d timed out, %d failed, %d unresolved (of %d ops)",
			r.TimedOut, r.FailedOps, r.EndAborts, r.Ops)
	default:
		return "ok"
	}
}

// Fingerprint hashes the run's complete recorded behaviour — every
// operation of every key with its virtual-time bounds — so determinism is
// checkable by equality: same scenario + same seed must reproduce the same
// fingerprint, byte for byte.
func (r *Result) Fingerprint() string {
	h := sha256.New()
	keys := make([]string, 0, len(r.Histories))
	for k := range r.Histories {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, op := range r.Histories[k] {
			fmt.Fprintf(h, "%s|%d|%s|%s|%q|%q|%d|%d|%d|%t|%t\n",
				k, op.ID, op.Process, op.Kind, op.Argument, op.Result, op.ResultTS,
				op.Invoked.Sub(transport.VirtualEpoch), op.Returned.Sub(transport.VirtualEpoch),
				op.Completed, op.Failed)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// byzantineNames maps the scenario DSL's behaviour names — each behaviour's
// own String() — to the behaviours.
var byzantineNames = func() map[string]fastread.ByzantineBehavior {
	names := make(map[string]fastread.ByzantineBehavior)
	for b := fastread.ByzantineForgeTimestamp; b <= fastread.ByzantineFlood; b++ {
		names[b.String()] = b
	}
	return names
}()

// byzantineConfig resolves a scenario's behaviour names.
func byzantineConfig(m map[int]string) (map[int]fastread.ByzantineBehavior, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[int]fastread.ByzantineBehavior, len(m))
	for i, name := range m {
		b, ok := byzantineNames[name]
		if !ok {
			return nil, fmt.Errorf("sim: unknown byzantine behaviour %q for server %d", name, i)
		}
		out[i] = b
	}
	return out, nil
}

// simOp is one in-flight operation's runner-side bookkeeping.
type simOp struct {
	id      int64
	key     string
	reader  int // 0 for the writer's operations
	wf      *fastread.WriteFuture
	rf      *fastread.ReadFuture
	settled bool
}

func (o *simOp) doneCh() <-chan struct{} {
	if o.wf != nil {
		return o.wf.Done()
	}
	return o.rf.Done()
}

// handleID identifies one pipeline (a key's writer, or a key×reader pair)
// for depth accounting.
type handleID struct {
	key    string
	reader int
}

// runner executes one scenario on the virtual clock. Everything it does —
// submissions, fault injections, timeouts, result draining — happens on the
// single goroutine driving VirtualClock.Step, so its state needs no locks
// and its decisions are deterministic.
type runner struct {
	sc    Scenario
	clock *transport.VirtualClock
	store *fastread.Store
	net   *transport.InMemNetwork
	regs  map[string]*fastread.Register
	recs  map[string]*history.Recorder

	// abortCtx is pre-cancelled: Future.Result(abortCtx) on an unresolved
	// future aborts it fully synchronously on this goroutine (verified
	// property of the pipeline engine), which is how virtual-time deadlines
	// stay deterministic.
	abortCtx context.Context

	pending  []*simOp
	inflight map[handleID]int
	seq      map[string]int

	res *Result
}

// Run executes the scenario at the given seed and returns its complete
// outcome. It is safe to call concurrently (sweep workers do): each run
// owns a private deployment, clock and recorders.
func Run(sc Scenario, seed int64) *Result {
	sc = sc.WithDefaults()
	if sc.Protocol == BuggyProtocolName {
		RegisterBuggyDriver()
	}
	res := &Result{Scenario: sc, Seed: seed, Histories: map[string]history.History{}}
	wallStart := time.Now()
	defer func() { res.Wall = time.Since(wallStart) }()

	byz, err := byzantineConfig(sc.Byzantine)
	if err != nil {
		res.RunErr = err
		return res
	}

	clock := transport.NewVirtualClock()
	cfg, net := Replayable(fastread.Config{
		Servers:       sc.Servers,
		Faulty:        sc.Faulty,
		Malicious:     sc.Malicious,
		Readers:       sc.Readers,
		PipelineDepth: sc.Depth,
		Protocol:      fastread.Protocol(sc.Protocol),
		Byzantine:     byz,
	}, clock, transport.WithDefaultDelay(sc.Delay), transport.WithJitter(sc.Jitter), transport.WithSeed(seed))
	if sc.FrozenNonce {
		// The deliberately-wrong configuration: a restarted reader incarnation
		// no longer draws a larger initial counter, which starves it.
		cfg.NonceSource = func() int64 { return 1 }
	}
	if sc.Durable != nil {
		fsync := fastread.FsyncPolicy(sc.Durable.Fsync)
		if fsync == "" {
			fsync = fastread.FsyncAlways
		}
		if fsync != fastread.FsyncAlways && fsync != fastread.FsyncNever {
			// The interval policy flushes on a wall-clock ticker, which a
			// deterministic run cannot contain.
			res.RunErr = fmt.Errorf("sim: durable fsync policy %q is wall-clock-driven; use always or never", sc.Durable.Fsync)
			return res
		}
		dir, err := os.MkdirTemp("", "sim-durable-")
		if err != nil {
			res.RunErr = fmt.Errorf("sim: durable dir: %w", err)
			return res
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
		cfg.Durability = fastread.DurabilityOptions{
			Fsync:        fsync,
			SegmentBytes: sc.Durable.SegmentBytes,
			// Background snapshots run on their own wall-clock goroutine;
			// restarts model machine crashes, not graceful handovers.
			SnapshotEvery: -1,
			SimulateCrash: true,
		}
	}
	store, err := fastread.NewStore(cfg)
	if err != nil {
		res.RunErr = fmt.Errorf("sim: deploy %q: %w", sc.Name, err)
		return res
	}
	defer store.Close()

	aborted, cancel := context.WithCancel(context.Background())
	cancel()
	r := &runner{
		sc: sc, clock: clock, store: store, net: net,
		regs:     make(map[string]*fastread.Register, sc.Keys),
		recs:     make(map[string]*history.Recorder, sc.Keys),
		abortCtx: aborted,
		inflight: make(map[handleID]int),
		seq:      make(map[string]int),
		res:      res,
	}
	for k := 0; k < sc.Keys; k++ {
		key := KeyName(k)
		reg, err := store.Register(key)
		if err != nil {
			res.RunErr = err
			return res
		}
		r.regs[key] = reg
		r.recs[key] = history.NewRecorderWithClock(clock.Now)
	}

	r.scheduleWorkload()
	r.scheduleFaults()
	r.loop()

	res.SimTime = clock.Now().Sub(transport.VirtualEpoch)
	res.Stats = store.Stats()
	for key, rec := range r.recs {
		res.Histories[key] = rec.History()
	}
	if res.RunErr == nil {
		check, err := atomicity.CheckKeyed(res.Histories, sc.checkFunc(), 1)
		if err != nil {
			res.RunErr = fmt.Errorf("sim: check %q: %w", sc.Name, err)
		} else {
			res.Check = check
		}
	}
	return res
}

// scheduleWorkload pre-schedules every submission of the run as absolute
// virtual-time events (the clock is still at the epoch, so relative delays
// ARE absolute offsets). Per-key and per-reader staggers keep distinct
// streams off the same instant, which keeps same-instant event ordering a
// non-issue for the workload shape.
func (r *runner) scheduleWorkload() {
	for k := 0; k < r.sc.Keys; k++ {
		key := KeyName(k)
		stagger := time.Duration(k+1) * time.Millisecond
		for at := stagger; at < r.sc.Duration; at += r.sc.WriteGap {
			r.clock.Schedule(at, func() { r.submitWrite(key) })
		}
		for ri := 1; ri <= r.sc.Readers; ri++ {
			ri := ri
			start := stagger + time.Duration(ri)*700*time.Microsecond
			for at := start; at < r.sc.Duration; at += r.sc.ReadGap {
				r.clock.Schedule(at, func() { r.submitRead(key, ri) })
			}
		}
	}
}

// scheduleFaults schedules the fault script.
func (r *runner) scheduleFaults() {
	for _, f := range r.sc.Faults {
		f := f
		r.clock.Schedule(f.At, func() { r.applyFault(f) })
	}
}

// loop drives the clock until the event queue drains: deliveries,
// submissions, faults and timeouts all run inside Step, with their whole
// cascade — any future whose completing acknowledgement was just delivered
// is already resolved when Step returns, so draining here observes
// completions at their exact virtual time.
func (r *runner) loop() {
	for {
		ran, err := r.clock.Step()
		if err != nil {
			r.res.RunErr = fmt.Errorf("sim: %q seed %d: %w", r.sc.Name, r.res.Seed, err)
			break
		}
		if !ran {
			break
		}
		r.drain()
	}
	r.drain()
	// Nothing should be left: every operation had a timeout event. Anything
	// still pending means the accounting broke; abort it and say so.
	for _, op := range r.pending {
		if !op.settled {
			r.failOp(op)
			r.res.EndAborts++
		}
	}
	r.pending = nil
}

// drain resolves every in-flight operation whose future settled, in
// submission order, and compacts the pending list.
func (r *runner) drain() {
	kept := r.pending[:0]
	for _, op := range r.pending {
		if op.settled {
			continue
		}
		select {
		case <-op.doneCh():
			r.resolveOp(op)
		default:
			kept = append(kept, op)
		}
	}
	r.pending = kept
}

// submitWrite submits the key's next pipelined write, skipping (never
// blocking — blocking would deadlock the event loop) when the handle is at
// depth.
func (r *runner) submitWrite(key string) {
	h := handleID{key: key}
	if r.inflight[h] >= r.sc.Depth {
		r.res.SubmitSkips++
		return
	}
	r.seq[key]++
	value := fmt.Sprintf("%s#%06d", key, r.seq[key])
	rec := r.recs[key]
	id := rec.Invoke(types.Writer(), history.OpWrite, types.Value(value))
	fut, err := r.regs[key].Writer().WriteAsync(context.Background(), []byte(value))
	if err != nil {
		rec.Fail(id)
		r.res.FailedOps++
		return
	}
	r.res.Ops++
	r.track(&simOp{id: id, key: key, wf: fut}, h)
}

// submitRead submits reader ri's next pipelined read of the key.
func (r *runner) submitRead(key string, ri int) {
	h := handleID{key: key, reader: ri}
	if r.inflight[h] >= r.sc.Depth {
		r.res.SubmitSkips++
		return
	}
	reader, err := r.regs[key].Reader(ri)
	if err != nil {
		r.res.RunErr = err
		return
	}
	rec := r.recs[key]
	id := rec.Invoke(types.Reader(ri), history.OpRead, nil)
	fut, err := reader.ReadAsync(context.Background())
	if err != nil {
		rec.Fail(id)
		r.res.FailedOps++
		return
	}
	r.res.Ops++
	r.track(&simOp{id: id, key: key, reader: ri, rf: fut}, h)
}

// track registers a submitted operation and arms its virtual-time deadline.
func (r *runner) track(op *simOp, h handleID) {
	r.inflight[h]++
	r.pending = append(r.pending, op)
	r.clock.Schedule(r.sc.OpTimeout, func() { r.timeoutOp(op) })
}

// timeoutOp fires an operation's virtual deadline. The non-blocking Done
// check comes first: if the future resolved in the same Step burst, Result
// would face a two-ready select (a nondeterministic coin flip), so the
// completed case must be taken explicitly before the abort path.
func (r *runner) timeoutOp(op *simOp) {
	if op.settled {
		return
	}
	select {
	case <-op.doneCh():
		r.resolveOp(op)
		return
	default:
	}
	r.failOp(op)
	r.res.TimedOut++
}

// resolveOp records a settled future's outcome. The futures are resolved,
// so the Result calls return immediately.
func (r *runner) resolveOp(op *simOp) {
	r.settle(op)
	rec := r.recs[op.key]
	if op.wf != nil {
		if err := op.wf.Result(context.Background()); err != nil {
			rec.Fail(op.id)
			r.res.FailedOps++
			return
		}
		rec.Return(op.id, nil, 0)
	} else {
		res, err := op.rf.Result(context.Background())
		if err != nil {
			rec.Fail(op.id)
			r.res.FailedOps++
			return
		}
		rec.Return(op.id, types.Value(res.Value), types.Timestamp(res.Version))
	}
	r.res.Completed++
}

// failOp aborts an unresolved operation synchronously (via the
// pre-cancelled context) and records it as failed.
func (r *runner) failOp(op *simOp) {
	r.settle(op)
	if op.wf != nil {
		_ = op.wf.Result(r.abortCtx)
	} else {
		_, _ = op.rf.Result(r.abortCtx)
	}
	r.recs[op.key].Fail(op.id)
}

func (r *runner) settle(op *simOp) {
	op.settled = true
	r.inflight[handleID{key: op.key, reader: op.reader}]--
}

// clients lists the deployment's client identities (the writer and every
// reader), the endpoints the hold faults apply to.
func (r *runner) clients() []types.ProcessID {
	out := []types.ProcessID{types.Writer()}
	for i := 1; i <= r.sc.Readers; i++ {
		out = append(out, types.Reader(i))
	}
	return out
}

// applyFault executes one fault-script event.
func (r *runner) applyFault(f FaultEvent) {
	srv := types.Server(f.Server)
	switch f.Kind {
	case FaultIsolate:
		r.net.Isolate(srv)
	case FaultReconnect:
		r.net.Reconnect(srv)
	case FaultCrash:
		if err := r.store.CrashServer(f.Server); err != nil {
			r.res.RunErr = err
		}
	case FaultRestartServer:
		// The swap is atomic in virtual time: the old incarnation's queued
		// messages die with its node, the new one recovers from disk (when
		// the scenario is durable) and rejoins before the next event fires.
		if err := r.store.RestartServer(f.Server); err != nil {
			r.res.RunErr = err
		}
	case FaultHold:
		for _, c := range r.clients() {
			r.net.Hold(c, srv)
			r.net.Hold(srv, c)
		}
	case FaultRelease:
		for _, c := range r.clients() {
			r.net.Release(c, srv)
			r.net.Release(srv, c)
		}
	case FaultDropHeld:
		for _, c := range r.clients() {
			r.net.DropHeld(c, srv)
			r.net.DropHeld(srv, c)
		}
	case FaultRestartReader:
		r.restartReader(f.Reader, f.Key)
	default:
		r.res.RunErr = fmt.Errorf("sim: unknown fault kind %q", f.Kind)
	}
}

// restartReader models a reader process restart for one key (or all). The
// old incarnation's in-flight operations are settled HERE, synchronously,
// before the store swaps the client: severing the route first would let the
// pipeline's dispatch goroutine fail them asynchronously, racing the event
// loop. An operation whose quorum already assembled resolves normally; the
// rest die with the process.
func (r *runner) restartReader(ri int, key string) {
	keys := []string{key}
	if key == "" {
		keys = keys[:0]
		for k := 0; k < r.sc.Keys; k++ {
			keys = append(keys, KeyName(k))
		}
	}
	for _, k := range keys {
		for _, op := range r.pending {
			if op.settled || op.key != k || op.reader != ri {
				continue
			}
			select {
			case <-op.doneCh():
				r.resolveOp(op)
				continue
			default:
			}
			r.failOp(op)
			r.res.RestartAborts++
		}
		if err := r.store.RestartReader(k, ri); err != nil {
			r.res.RunErr = err
		}
	}
}
