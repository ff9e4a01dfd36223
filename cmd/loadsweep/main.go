// Command loadsweep drives the open-loop generator against in-process
// fastread deployments and emits throughput-vs-latency curves as JSON — the
// data behind BENCH_10.json. Each curve is one transport × pipeline-depth
// combination swept over ascending offered rates; every point carries
// coordinated-omission-safe p50/p99/p999 (latency measured from each
// operation's intended arrival) plus the exact shed/timeout accounting, and
// each curve reports its knee: the last rate whose p99 stayed under
// -knee-p99 while absorbing ≥90% of its offered load.
//
//	loadsweep -transports inmem,tcp,udp -depths 1,16 -rates 250,500,1000,2000 -o BENCH.json
//
// With -smoke it instead runs a seconds-long self-check for CI: a tiny sweep
// proving the knee finder runs end to end, a forced server-side overload
// proving bounded queues shed (ShedDrops > 0) while every submitted
// operation still resolves, and an admission-control overload proving the
// open-loop accounting identity offered == completed + overloaded +
// timeouts + failed + overrun holds exactly. Any violated invariant exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastread"
	"fastread/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadsweep:", err)
		os.Exit(1)
	}
}

type curveOut struct {
	Transport   string                `json:"transport"`
	Depth       int                   `json:"depth"`
	Protocol    string                `json:"protocol"`
	Points      []workload.CurvePoint `json:"points"`
	KneeRate    float64               `json:"knee_rate"` // -1: no rate stayed under the limit
	KneeP99Ms   float64               `json:"knee_p99_ms"`
	KneeLimitMs float64               `json:"knee_limit_ms"`
}

type sweepOut struct {
	Config map[string]any `json:"config"`
	Curves []curveOut     `json:"curves"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadsweep", flag.ContinueOnError)
	var (
		out        = fs.String("o", "", "write the JSON report here (empty = stdout)")
		transports = fs.String("transports", "inmem,tcp,udp", "comma list of transports to sweep: inmem | tcp | udp")
		depths     = fs.String("depths", "1,16", "comma list of pipeline depths to sweep")
		rates      = fs.String("rates", "250,500,1000,2000", "comma list of offered rates (ops/sec), ascending")
		duration   = fs.Duration("duration", 500*time.Millisecond, "arrival window per rate step")
		keys       = fs.Int("keys", 4, "registers per deployment (arrivals spread zipfian over them)")
		protocol   = fs.String("protocol", "fast", "register protocol for the swept deployments")
		kneeP99    = fs.Duration("knee-p99", 25*time.Millisecond, "p99 threshold for the knee finder")
		admission  = fs.Duration("admission", time.Millisecond, "admission budget for the swept deployments (sheds instead of wedging the generator)")
		seed       = fs.Int64("seed", 1, "workload RNG seed")
		smoke      = fs.Bool("smoke", false, "run the CI self-check instead of a sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		return runSmoke()
	}

	rateList, err := parseFloats(*rates)
	if err != nil {
		return err
	}
	depthList, err := parseInts(*depths)
	if err != nil {
		return err
	}

	report := sweepOut{
		Config: map[string]any{
			"protocol":     *protocol,
			"servers":      4,
			"faulty":       1,
			"readers":      1,
			"keys":         *keys,
			"rates":        rateList,
			"step_ms":      float64(*duration) / float64(time.Millisecond),
			"admission_ms": float64(*admission) / float64(time.Millisecond),
			"read_frac":    0.5,
			"zipf_s":       1.0,
			"seed":         *seed,
		},
	}
	ctx := context.Background()
	for _, tr := range strings.Split(*transports, ",") {
		tr = strings.TrimSpace(tr)
		for _, depth := range depthList {
			curve, err := sweepOne(ctx, tr, depth, *protocol, *keys, rateList, *duration, *admission, *kneeP99, *seed)
			if err != nil {
				return fmt.Errorf("%s depth=%d: %w", tr, depth, err)
			}
			fmt.Fprintf(os.Stderr, "loadsweep: %s depth=%d done (knee %.0f ops/s)\n", tr, depth, curve.KneeRate)
			report.Curves = append(report.Curves, curve)
		}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

func protocolFor(name string) (fastread.Protocol, error) {
	for _, p := range []fastread.Protocol{
		fastread.ProtocolFast, fastread.ProtocolFastByzantine,
		fastread.ProtocolABD, fastread.ProtocolMaxMin, fastread.ProtocolRegular,
	} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

func transportFor(name string) (fastread.Transport, error) {
	switch name {
	case "inmem":
		return fastread.InMemory(), nil
	case "tcp":
		return fastread.TCP(nil), nil
	case "udp":
		return fastread.UDP(nil), nil
	default:
		return nil, fmt.Errorf("unknown transport %q (want inmem, tcp or udp)", name)
	}
}

func sweepOne(ctx context.Context, transport string, depth int, protocol string, keys int,
	rates []float64, step, admission, kneeP99 time.Duration, seed int64) (curveOut, error) {

	tr, err := transportFor(transport)
	if err != nil {
		return curveOut{}, err
	}
	proto, err := protocolFor(protocol)
	if err != nil {
		return curveOut{}, err
	}
	store, err := fastread.NewStore(fastread.Config{
		Servers:       4,
		Faulty:        1,
		Readers:       1,
		Protocol:      proto,
		Transport:     tr,
		PipelineDepth: depth,
		AdmissionWait: admission,
	})
	if err != nil {
		return curveOut{}, err
	}
	defer store.Close()
	client, err := storeClient(store, keys)
	if err != nil {
		return curveOut{}, err
	}
	points, err := workload.RunSweep(ctx, workload.SweepConfig{
		Base: workload.OpenLoopConfig{
			Poisson:      true,
			Seed:         seed,
			Keys:         keys,
			ZipfS:        1.0,
			ReadFraction: 0.5,
			OpTimeout:    2 * time.Second,
		},
		Rates:        rates,
		StepDuration: step,
		Settle:       100 * time.Millisecond,
	}, client)
	if err != nil {
		return curveOut{}, err
	}
	curve := curveOut{
		Transport:   transport,
		Depth:       depth,
		Protocol:    protocol,
		Points:      points,
		KneeRate:    -1,
		KneeP99Ms:   -1,
		KneeLimitMs: float64(kneeP99) / float64(time.Millisecond),
	}
	if i, ok := workload.Knee(points, kneeP99); ok {
		curve.KneeRate = points[i].OfferedRate
		curve.KneeP99Ms = points[i].P99ms
	}
	return curve, nil
}

// storeClient adapts keys registers of a store to the open-loop generator.
// The generator shards arrivals by key, preserving each handle's
// single-submitter discipline.
func storeClient(store *fastread.Store, keys int) (workload.OpenLoopClient, error) {
	writers := make([]fastread.Writer, keys)
	readers := make([]fastread.Reader, keys)
	for i := 0; i < keys; i++ {
		reg, err := store.Register(fmt.Sprintf("sweep-%03d", i))
		if err != nil {
			return workload.OpenLoopClient{}, err
		}
		writers[i] = reg.Writer()
		readers[i] = reg.Readers()[0]
	}
	return workload.OpenLoopClient{
		SubmitWrite: func(ctx context.Context, key int, seq int64) (func(context.Context) error, error) {
			wf, err := writers[key].WriteAsync(ctx, []byte(strconv.FormatInt(seq, 10)))
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
	}, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad depth %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no depths given")
	}
	return out, nil
}

// runSmoke is the CI self-check: three seconds-long scenarios, each
// asserting an invariant the overload control must hold. Returning an error
// (exit 1) on any violation makes this a regression gate, not a timing
// benchmark.
func runSmoke() error {
	ctx := context.Background()

	// 1. The knee finder runs end to end on a real (tiny) sweep.
	{
		store, err := fastread.NewStore(fastread.Config{
			Servers: 4, Faulty: 1, Readers: 1,
			Protocol:      fastread.ProtocolFast,
			PipelineDepth: 16,
			AdmissionWait: time.Millisecond,
		})
		if err != nil {
			return err
		}
		client, err := storeClient(store, 2)
		if err != nil {
			store.Close()
			return err
		}
		points, err := workload.RunSweep(ctx, workload.SweepConfig{
			Base: workload.OpenLoopConfig{
				Poisson: true, Seed: 7, Keys: 2, ReadFraction: 0.5, OpTimeout: 2 * time.Second,
			},
			Rates:        []float64{200, 400},
			StepDuration: 250 * time.Millisecond,
		}, client)
		store.Close()
		if err != nil {
			return fmt.Errorf("smoke sweep: %w", err)
		}
		if len(points) != 2 {
			return fmt.Errorf("smoke sweep: got %d points, want 2", len(points))
		}
		i, ok := workload.Knee(points, 100*time.Millisecond)
		if !ok {
			return fmt.Errorf("smoke sweep: no knee under an unmissable 100ms p99 limit: %+v", points)
		}
		fmt.Printf("smoke sweep: ok, knee %.0f ops/s (p99 %.3fms)\n", points[i].OfferedRate, points[i].P99ms)
	}

	// 2. Fixed-rate open loop far past capacity with admission control on:
	// the generator must shed (Overloaded > 0) and the accounting identity
	// must hold exactly — no operation silently lost.
	{
		store, err := fastread.NewStore(fastread.Config{
			Servers: 4, Faulty: 1, Readers: 1,
			Protocol:      fastread.ProtocolFast,
			PipelineDepth: 2,
			Transport:     fastread.InMemory(fastread.WithDelay(2 * time.Millisecond)),
			AdmissionWait: 500 * time.Microsecond,
			QueueBound:    128,
		})
		if err != nil {
			return err
		}
		client, err := storeClient(store, 2)
		if err != nil {
			store.Close()
			return err
		}
		res, err := workload.RunOpenLoop(ctx, workload.OpenLoopConfig{
			Rate: 4000, Duration: 300 * time.Millisecond,
			Seed: 7, Keys: 2, ReadFraction: 0.5, OpTimeout: 2 * time.Second,
		}, client)
		stats := store.Stats()
		store.Close()
		if err != nil {
			return fmt.Errorf("smoke overload: %w", err)
		}
		got := res.Completed + res.Overloaded + res.Timeouts + res.Failed + res.Overrun
		if got != res.Offered {
			return fmt.Errorf("smoke overload: accounting leak, offered %d classified %d", res.Offered, got)
		}
		if res.Overloaded == 0 {
			return fmt.Errorf("smoke overload: expected ErrOverloaded sheds at 4000 ops/s over a ~1000 ops/s deployment, got none (completed=%d)", res.Completed)
		}
		if stats.MailboxHighWater > 128 {
			return fmt.Errorf("smoke overload: mailbox high water %d exceeds bound 128", stats.MailboxHighWater)
		}
		fmt.Printf("smoke overload: ok, offered=%d completed=%d overloaded=%d timeouts=%d\n",
			res.Offered, res.Completed, res.Overloaded, res.Timeouts)
	}

	// 3. Bounded server queues under a verification-limited write burst: the
	// shed counter must move and every submitted operation must still
	// resolve (complete from admitted copies, or fail its own deadline).
	{
		store, err := fastread.NewStore(fastread.Config{
			Servers: 8, Faulty: 1, Malicious: 1, Readers: 1,
			Protocol:      fastread.ProtocolFastByzantine,
			ServerWorkers: 1,
			PipelineDepth: 24,
			QueueBound:    8,
		})
		if err != nil {
			return err
		}
		const keys, perKey = 2, 24
		regs := make([]*fastread.Register, keys)
		for i := range regs {
			if regs[i], err = store.Register(fmt.Sprintf("burst-%d", i)); err != nil {
				store.Close()
				return err
			}
		}
		burstCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		var wg sync.WaitGroup
		var completed, errored atomic.Int64
		for _, reg := range regs {
			wg.Add(1)
			go func(w fastread.Writer) {
				defer wg.Done()
				futures := make([]*fastread.WriteFuture, 0, perKey)
				for i := 0; i < perKey; i++ {
					wf, err := w.WriteAsync(burstCtx, []byte(fmt.Sprintf("b%d", i)))
					if err != nil {
						errored.Add(1)
						continue
					}
					futures = append(futures, wf)
				}
				for _, wf := range futures {
					if wf.Result(burstCtx) != nil {
						errored.Add(1)
					} else {
						completed.Add(1)
					}
				}
			}(reg.Writer())
		}
		wg.Wait()
		cancel()
		stats := store.Stats()
		store.Close()
		if total := completed.Load() + errored.Load(); total != keys*perKey {
			return fmt.Errorf("smoke shed: per-op accounting leak, %d submitted %d resolved", keys*perKey, total)
		}
		if completed.Load() == 0 {
			return fmt.Errorf("smoke shed: no write completed at all")
		}
		if stats.ShedDrops == 0 {
			return fmt.Errorf("smoke shed: bounded queues shed nothing under a %d-write burst at bound 8", keys*perKey)
		}
		fmt.Printf("smoke shed: ok, completed=%d errored=%d shedDrops=%d\n",
			completed.Load(), errored.Load(), stats.ShedDrops)
	}

	fmt.Println("loadsweep smoke: all invariants held")
	return nil
}
