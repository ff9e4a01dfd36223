package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runOK drives the command in-process and returns its parsed last line.
func runOK(t *testing.T, args ...string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-workdir", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchreport %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	// Exactly the contract's keys, at both levels: unknown fields are an error.
	var strict struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&strict); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	out := output{Correct: strict.Correct, Attempted: strict.Attempted, Failed: strict.Failed, Metrics: map[string]measured{}}
	for name, m := range strict.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, nameRE)
		}
		out.Metrics[name] = measured{Value: m.Value, Unit: m.Unit}
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("benchreport %v: correct=%v attempted=%d failed=%d", args, out.Correct, out.Attempted, out.Failed)
	}
	return out
}

// assertMetrics checks that out carries exactly the metrics in defs, each
// once (a JSON object cannot repeat a key; results.set panics on a second
// report), with the registered unit and a finite value.
func assertMetrics(t *testing.T, out output, defs []metricDef) {
	t.Helper()
	if len(out.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(out.Metrics), len(defs))
	}
	for _, def := range defs {
		m, ok := out.Metrics[def.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", def.Name)
		case m.Unit != def.Unit:
			t.Errorf("metric %s: unit %q, want %q", def.Name, m.Unit, def.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s: value %v is not finite", def.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload small, the cells with one repetition and the
// traced run with one round.
func TestSmoke(t *testing.T) {
	small := []string{"-seed", "7", "-rounds", "2", "-ops", "256", "-setups", "1"}
	for _, w := range workloads {
		out := runOK(t, append([]string{"-workload", w.Name, "-trace", "0"}, small...)...)
		assertMetrics(t, out, endToEnd)
		if want := 2 * 256; out.Attempted != want {
			t.Errorf("%s: attempted %d operations, want %d", w.Name, out.Attempted, want)
		}
	}

	out := runOK(t, "-layers", "-reps", "1")
	assertMetrics(t, out, cellLayer)

	// The per-layer mode end to end on one workload (it runs the cells
	// again, so once is enough) ...
	out = runOK(t, "-workload", "durable_pipelined_always", "-trace", "1", "-seed", "7", "-rounds", "1", "-ops", "256", "-reps", "1")
	assertMetrics(t, out, perLayer())
	if out.Metrics["durable.fsyncs_per_op"].Value <= 0 || out.Metrics["durable.restart_ms"].Value <= 0 {
		t.Errorf("durable workload reported no fsyncs or no restart: %+v %+v",
			out.Metrics["durable.fsyncs_per_op"], out.Metrics["durable.restart_ms"])
	}
	// ... and the traced run alone on the others.
	for _, w := range workloads {
		if w.Durable {
			continue
		}
		dir := t.TempDir()
		tr, err := tracedRun(context.Background(), &w, traceOpts{seed: 7, ops: 256, rounds: 1, workDir: dir, spanFile: filepath.Join(dir, "spans.csv")})
		if err != nil {
			t.Fatalf("traced run of %s: %v", w.Name, err)
		}
		if tr.failed != 0 || tr.keysChecked == 0 || tr.spans == 0 {
			t.Errorf("traced run of %s: failed=%d keys=%d spans=%d", w.Name, tr.failed, tr.keysChecked, tr.spans)
		}
		if len(tr.metrics) != len(traceLayer) {
			t.Errorf("traced run of %s: %d metrics, want %d", w.Name, len(tr.metrics), len(traceLayer))
		}
		if op := tr.metrics["trace.op_us"]; op.N != 1 || op.Value <= 0 {
			t.Errorf("traced run of %s: trace.op_us = %+v (blocking chains not reconstructed)", w.Name, op)
		}
	}
}

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONAgrees pins BENCHMARK.json to the code: names, units,
// directions, bounds, workloads and their reasons.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"cmd/benchreport"}) || !slices.Equal(b.Command, []string{"bash", "cmd/benchreport/run.sh"}) {
		t.Errorf("command %v / paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		name(def.Name)
		got := b.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, got, def)
		}
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	layer := perLayer()
	if len(b.PerLayer) != len(layer) || len(layer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(b.PerLayer), len(layer))
	}
	for i, def := range layer {
		name(def.Name)
		got := b.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, got, def)
		}
		if def.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", def.Name)
		}
	}
}

// TestStreamIsSeeded: the same seed yields the same operation sequence, a
// different seed another one, and rounds are big enough for their p99.
func TestStreamIsSeeded(t *testing.T) {
	for i := range workloads {
		sp := &workloads[i]
		a, b, c := streamHash(sp, 1, 2, sp.Ops), streamHash(sp, 1, 2, sp.Ops), streamHash(sp, 2, 2, sp.Ops)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x and %x", sp.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generate the same stream", sp.Name)
		}
		if sp.Keys%sp.Clients != 0 || sp.Ops%sp.Clients != 0 {
			t.Errorf("%s: keys and ops must divide evenly among clients", sp.Name)
		}
		// Every round must leave at least 10 read samples beyond its p99.
		for seed := int64(1); seed <= 5; seed++ {
			reads := 0
			for _, s := range newStreams(sp, seed) {
				ops := make([]op, sp.Ops/sp.Clients)
				s.fill(ops)
				for _, o := range ops {
					if o.reader != 0 {
						reads++
					}
					if int(o.key)%sp.Clients != s.client || int(o.reader) > sp.Readers {
						t.Fatalf("%s: client %d generated %+v", sp.Name, s.client, o)
					}
				}
			}
			if beyond := reads - rank(reads, 0.99); beyond < 10 {
				t.Errorf("%s seed %d: %d reads leave %d samples beyond p99, want >= 10", sp.Name, seed, reads, beyond)
			}
		}
	}
}

// TestEstimatorsMatchBruteForce checks the percentile and quiet-quartile
// helpers against their definitions, by counting.
func TestEstimatorsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// atLeast returns the smallest element v with at least share of all
	// elements <= v (nearest rank, by definition).
	atLeast := func(xs []float64, share float64) float64 {
		best := math.Inf(1)
		for _, v := range xs {
			le := 0
			for _, x := range xs {
				if x <= v {
					le++
				}
			}
			if float64(le) >= share*float64(len(xs))-1e-9 && v < best {
				best = v
			}
		}
		return best
	}
	for n := 1; n <= 64; n++ {
		xs := make([]float64, n)
		ints := make([]int64, n)
		for i := range xs {
			ints[i] = rng.Int63n(50) // ties on purpose
			xs[i] = float64(ints[i])
		}
		slices.Sort(ints)
		for _, p := range []float64{50, 99, 99.9} {
			if got, want := percentile(ints, p), int64(atLeast(xs, p/100)); got != want {
				t.Fatalf("n=%d: percentile(%v) = %d, want %d", n, p, got, want)
			}
		}
		if got, want := quietQuartile(xs, false), atLeast(xs, 0.25); got != want {
			t.Fatalf("n=%d: lower quiet quartile = %v, want %v", n, got, want)
		}
		// Higher-is-better mirrors the same rule on the negated values.
		neg := make([]float64, n)
		for i, x := range xs {
			neg[i] = -x
		}
		if got, want := quietQuartile(xs, true), -atLeast(neg, 0.25); got != want {
			t.Fatalf("n=%d: upper quiet quartile = %v, want %v", n, got, want)
		}
		if got, want := median(xs), atLeast(xs, 0.5); got != want {
			t.Fatalf("n=%d: median = %v, want %v", n, got, want)
		}
	}
	if percentile(nil, 50) != 0 || quietQuartile(nil, true) != 0 {
		t.Fatal("empty inputs must give 0")
	}
}

// TestPySpread pins the A/A table's spread to what Python's
// statistics.quantiles(values, n=4) and statistics.median give.
func TestPySpread(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{90, 10, 50, 20, 40}, 1.375},
		{[]float64{3, 1, 2}, 1.0},
	} {
		if got := pySpread(tc.values); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("pySpread(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
}
