package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"fastread/internal/protoutil"
	"fastread/internal/types"
	"fastread/internal/workload"
)

// The loadgen subcommand is the open-loop counterpart of bench. bench is
// closed-loop: its workers wait for completions, so when the deployment
// slows down the offered load politely slows down with it and the reported
// latencies stay flattering. loadgen instead schedules arrivals on a clock
// at -rate ops/sec regardless of how the deployment is coping, and charges
// each operation's latency from its INTENDED arrival time — the
// coordinated-omission-safe discipline. With -rates r1,r2,... it sweeps the
// curve and reports the knee: the last rate whose p99 stayed under
// -knee-p99 while actually absorbing its offered load.
//
//	regclient -id w  -book "$BOOK" -key k -keys 8 loadgen -rate 2000 -duration 10s
//	regclient -id r1 -book "$BOOK" -key k -keys 8 loadgen -rates 500,1000,2000,4000
//	regclient -id w  -book "$BOOK" loadgen -rate 5000 -admission 1ms -pipeline 16

// parseRates parses the -rates comma list into ascending offered rates.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-rates: bad rate %q (want positive ops/sec)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rates: no rates given")
	}
	return out, nil
}

// loadgenClient adapts the per-key driver handles to the open-loop
// generator. The generator shards arrivals by key, so each handle keeps its
// single-submitter discipline; the admission budget rides the operation
// context so a handle whose pipeline is saturated sheds with ErrOverloaded
// instead of blocking the generator.
func loadgenClient(writers []*protoutil.Writer, readers []*protoutil.Reader, admission time.Duration) workload.OpenLoopClient {
	admit := func(ctx context.Context) context.Context {
		if admission > 0 {
			return protoutil.WithAdmissionWait(ctx, admission)
		}
		return ctx
	}
	var c workload.OpenLoopClient
	if len(writers) > 0 {
		c.SubmitWrite = func(ctx context.Context, key int, seq int64) (func(context.Context) error, error) {
			f, err := writers[key].WriteAsync(admit(ctx), types.Value(fmt.Sprintf("load-%d", seq)))
			if err != nil {
				return nil, err
			}
			return waitErr(f), nil
		}
	}
	if len(readers) > 0 {
		c.SubmitRead = func(ctx context.Context, key int) (func(context.Context) error, error) {
			f, err := readers[key].ReadAsync(admit(ctx))
			if err != nil {
				return nil, err
			}
			return waitErr(f), nil
		}
	}
	return c
}

// printCurvePoint renders one rate step; the same shape whether it came from
// a single run or a sweep, so output lines are grep/awk-stable.
func printCurvePoint(p workload.CurvePoint) {
	fmt.Printf("rate: offered=%.1f goodput=%.1f p50=%.3fms p99=%.3fms p999=%.3fms max=%.3fms completed=%d overloaded=%d timeouts=%d failed=%d overrun=%d\n",
		p.OfferedRate, p.Goodput, p.P50ms, p.P99ms, p.P999ms, p.MaxMs,
		p.Completed, p.Overloaded, p.Timeouts, p.Failed, p.Overrun)
}

// runLoadgen drives the open-loop generator against the writer's or a
// reader's per-key handles: the client role decides the mix (the writer
// offers writes, a reader offers reads — the SWMR model has no mixed
// handle). Exactly one of writers/readers is non-empty.
func runLoadgen(ctx context.Context, c *cliConfig, writers []*protoutil.Writer, readers []*protoutil.Reader) error {
	keys := len(writers)
	readFraction := 0.0
	if keys == 0 {
		keys = len(readers)
		readFraction = 1.0
	}
	base := workload.OpenLoopConfig{
		Rate:         c.rate,
		Duration:     c.duration,
		Poisson:      c.arrival == "poisson",
		Seed:         c.seed,
		Keys:         keys,
		ZipfS:        c.zipfS,
		ReadFraction: readFraction,
		OpTimeout:    c.timeout,
	}
	client := loadgenClient(writers, readers, c.admission)

	if c.rates != "" {
		rates, err := parseRates(c.rates)
		if err != nil {
			return err
		}
		points, err := workload.RunSweep(ctx, workload.SweepConfig{
			Base:         base,
			Rates:        rates,
			StepDuration: c.duration,
			Settle:       200 * time.Millisecond,
		}, client)
		if err != nil {
			return err
		}
		for _, p := range points {
			printCurvePoint(p)
		}
		if i, ok := workload.Knee(points, c.kneeP99); ok {
			fmt.Printf("knee: %.1f ops/s (p99 %.3fms <= %v)\n", points[i].OfferedRate, points[i].P99ms, c.kneeP99)
		} else {
			fmt.Printf("knee: none (no swept rate kept p99 <= %v while absorbing its load)\n", c.kneeP99)
		}
		return nil
	}

	res, err := workload.RunOpenLoop(ctx, base, client)
	if err != nil {
		return err
	}
	printCurvePoint(workload.PointOf(res))
	return nil
}
