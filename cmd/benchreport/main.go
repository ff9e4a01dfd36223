// Command benchreport is the repository's benchmark: one command that runs a
// named workload from a seed, verifies that every result is correct, and
// prints every metric by name with its unit.
//
//	benchreport -workload serial_mixed_inmem -seed 1 -seconds 24 -trace 0   # end-to-end metrics
//	benchreport -workload serial_mixed_inmem -seed 1 -seconds 24 -trace 1   # per-layer metrics
//	benchreport -layers                                                     # workload-independent cells only
//	benchreport -aa 5                                                       # A/A self-check of repeatability
//
// It touches no product code: every layer is measured from outside, through
// exported functions. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; everything before it is for
// people. README.md explains the workloads, the metrics and the estimator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// hardLimit aborts a run that an operation has wedged: the benchmark runs
// operations on context.Background (as the library's own benchmarks do, so
// no per-operation context bookkeeping is measured), and must still end.
const hardLimit = 170 * time.Second

// output is the last line of standard output.
type output struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the smoke test drives it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+workloadNames())
		seed     = fs.Int64("seed", 1, "seed of the generated operation stream")
		seconds  = fs.Int("seconds", 24, "how long the measured part of the run lasts")
		trace    = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: per-layer metrics (short timed run, cells, traced run)")
		layers   = fs.Bool("layers", false, "run only the workload-independent per-layer cells")
		aa       = fs.Int("aa", 0, "A/A self-check: run every workload N times in two interleaved sets and compare the set medians")
		rounds   = fs.Int("rounds", 0, "exact number of timed rounds (default: as many as -seconds allows, at least 16)")
		ops      = fs.Int("ops", 0, "operations per round (default: the workload's own size; for smoke tests only)")
		reps     = fs.Int("reps", 0, "repetitions per cell (default: 16 with -layers, 3 with -trace 1)")
		setups   = fs.Int("setups", 0, "exact number of cold set-ups (default: at least 8 and 3 s' worth; 2 with -trace 1)")
		workDir  = fs.String("workdir", filepath.Join(".bench_build", "benchreport"), "scratch directory for durable data and span files")
		outPath  = fs.String("out", "", "also write the full report (fingerprint, medians, IQRs) to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchreport: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if *aa > 0 {
		if err := selfCheck(*aa, *seconds, *seed, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	// Each run works in its own subdirectory so concurrent or crashed runs
	// never see each other's durable state.
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(stderr, "benchreport: run exceeded %v; an operation is stuck\n", hardLimit)
		os.RemoveAll(scratch)
		os.Exit(3)
	})
	defer watchdog.Stop()

	ctx := context.Background()
	fp := takeFingerprint(scratch)
	fmt.Fprintf(stdout, "benchreport: %s\n", fp)
	rep := report{Fingerprint: fp, Seed: *seed}

	if *layers {
		rep.Metrics = results{}
		n := *reps
		if n <= 0 {
			n = 16
		}
		if err := runCells(rep.Metrics, n, scratch); err != nil {
			return fail(err)
		}
		return rep.finish(stdout, stderr, cellLayer, *outPath, 1, 0)
	}

	sp, err := workloadByName(*workload)
	if err != nil {
		return fail(fmt.Errorf("%w (want one of: %s)", err, workloadNames()))
	}
	rep.Workload = sp.Name
	budget := time.Duration(*seconds) * time.Second
	o := runOpts{
		seed: *seed, budget: budget, minRounds: 16, rounds: *rounds, ops: *ops,
		setupReps: 8, setupFor: 3 * time.Second, workDir: scratch,
	}
	if *trace != 0 {
		// The per-layer run shares the time budget three ways: a short timed
		// run for the store.* and durable.* counters, the cells, the traced
		// run. Its timing metrics are context, not gates, so fewer rounds and
		// repetitions are enough.
		o.budget, o.minRounds = budget/3, 4
		o.setupReps, o.setupFor = 2, 0
	}
	if *setups > 0 {
		o.setupReps, o.setupFor = *setups, 0
	}
	rr, err := timedRun(ctx, sp, o)
	if err != nil {
		return fail(err)
	}
	rep.Metrics, rep.Rounds, rep.StreamHash = rr.metrics, rr.rounds, fmt.Sprintf("%016x", rr.streamHash)
	fmt.Fprintf(stdout, "workload %s seed %d: %d timed rounds x %d ops in %.1fs, stream %s\n",
		sp.Name, *seed, rr.rounds, rr.attempted/max(rr.rounds, 1), rr.timed.Seconds(), rep.StreamHash)
	if rr.firstErr != nil {
		fmt.Fprintf(stderr, "benchreport: %d failed operations or violations; first: %v\n", rr.failed, rr.firstErr)
	}
	if *trace == 0 {
		return rep.finish(stdout, stderr, endToEnd, *outPath, rr.attempted, rr.failed)
	}

	n := *reps
	if n <= 0 {
		n = 3
	}
	if err := runCells(rep.Metrics, n, scratch); err != nil {
		return fail(err)
	}
	spans := filepath.Join(*workDir, sp.Name+".spans.csv")
	tr, err := tracedRun(ctx, sp, traceOpts{seed: *seed, ops: *ops, rounds: *rounds, workDir: scratch, spanFile: spans})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "traced run: %d spans of %d operations written to %s (%d blocking chains incomplete); histories of %d keys atomic\n",
		tr.spans, tr.attempted, spans, tr.incomplete, tr.keysChecked)
	for name, m := range tr.metrics {
		rep.Metrics.set(lookup(traceLayer, name), m)
	}
	return rep.finish(stdout, stderr, perLayer(), *outPath, rr.attempted+tr.attempted, rr.failed+tr.failed)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// report is the full result of one invocation (-out writes it as JSON).
type report struct {
	Schema      int         `json:"schema"`
	Workload    string      `json:"workload,omitempty"`
	Seed        int64       `json:"seed"`
	Rounds      int         `json:"rounds,omitempty"`
	StreamHash  string      `json:"stream_hash,omitempty"`
	Fingerprint fingerprint `json:"fingerprint"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Metrics     results     `json:"metrics"`
}

// finish prints every measured metric for people, then — as the last line —
// the contract's JSON object restricted to the metrics in emit. It returns
// the process exit code: non-zero when any operation failed or any result
// was wrong.
func (r *report) finish(stdout, stderr io.Writer, emit []metricDef, outPath string, attempted, failed int) int {
	r.Schema, r.Attempted, r.Failed = 1, attempted, failed
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-34s %14s %-6s %14s %12s %4s\n", "metric", "value", "unit", "median", "iqr", "n")
	for _, name := range names {
		m := r.Metrics[name]
		if m.N > 0 {
			fmt.Fprintf(stdout, "%-34s %14.4f %-6s %14.4f %12.4f %4d\n", name, m.Value, m.Unit, m.Median, m.IQR, m.N)
		} else {
			fmt.Fprintf(stdout, "%-34s %14.4f %-6s\n", name, m.Value, m.Unit)
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchreport: write report:", err)
			return 1
		}
	}
	out := output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]measured{}}
	for _, def := range emit {
		m, ok := r.Metrics[def.Name]
		if !ok {
			fmt.Fprintf(stderr, "benchreport: metric %s was not measured\n", def.Name)
			return 1
		}
		out.Metrics[def.Name] = measured{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchreport: encode result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed != 0 {
		return 1
	}
	return 0
}
