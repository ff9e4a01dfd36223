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
// The invariants the overload control must hold under such load — a sweep
// finds a knee, admission control sheds while the open-loop accounting
// identity holds exactly, bounded queues shed while every submitted operation
// still resolves — are asserted by go test: TestOverloadAcceptance and
// TestOverloadShedDropsAccounted at the repository root, and
// TestOpenLoopExactAccounting in internal/workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
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
	)
	if err := fs.Parse(args); err != nil {
		return err
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
	store, err := fastread.NewStore(fastread.Config{
		Servers:       4,
		Faulty:        1,
		Readers:       1,
		Protocol:      fastread.Protocol(protocol),
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
