package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// selfCheck is the A/A test of the instrument itself: it runs every workload
// n times in two interleaved sets (A1 B1 A2 B2 ..., same binary, a new seed
// each run, one process per run) and compares the sets' medians metric by
// metric — exactly the comparison a later PR's before/after is judged by, so
// it must come out "no difference". It fails when two sets of runs of the
// same code disagree by more than a metric's bound.
func selfCheck(n, seconds int, seed int64, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] are the set's n run values.
	values := map[string]map[string]*[2][]float64{}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				seed++
				start := time.Now()
				cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", "0")
				cmd.Stderr = stderr
				raw, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
				var out output
				if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
					return fmt.Errorf("%s seed %d: parse result: %w", w.Name, seed, err)
				}
				if values[w.Name] == nil {
					values[w.Name] = map[string]*[2][]float64{}
				}
				for name, m := range out.Metrics {
					if values[w.Name][name] == nil {
						values[w.Name][name] = new([2][]float64)
					}
					v := values[w.Name][name]
					v[set] = append(v[set], m.Value)
				}
				fmt.Fprintf(stderr, "aa: %c%d %s seed %d: %.1fs\n", 'A'+set, i+1, w.Name, seed, time.Since(start).Seconds())
			}
		}
	}

	fmt.Fprintf(stdout, "A/A self-check: %d runs per set, %d s each\n", n, seconds)
	fmt.Fprintf(stdout, "%-26s %-20s %14s %14s %9s %9s %9s %6s\n",
		"workload", "metric", "median A", "median B", "disagree", "iqr/med", "range", "bound")
	var over []string
	for _, w := range workloads {
		for _, def := range endToEnd {
			v := values[w.Name][def.Name]
			a, b := median(v[0]), median(v[1])
			all := slices.Concat(v[0], v[1])
			disagree := math.Abs(a-b) / math.Min(a, b)
			spread := pySpread(all)
			rng := (slices.Max(all) - slices.Min(all)) / median(all)
			mark := ""
			if disagree > def.Bound {
				mark = "  DISAGREE > bound"
				over = append(over, w.Name+"/"+def.Name)
			} else if disagree > def.Bound/2 {
				mark = "  > bound/2"
			}
			fmt.Fprintf(stdout, "%-26s %-20s %14.4f %14.4f %8.2f%% %8.2f%% %8.2f%% %5.0f%%%s\n",
				w.Name, def.Name, a, b, 100*disagree, 100*spread, 100*rng, 100*def.Bound, mark)
		}
	}
	fmt.Fprintln(stdout, "\nper-run values (set A | set B):")
	for _, w := range workloads {
		for _, def := range endToEnd {
			v := values[w.Name][def.Name]
			fmt.Fprintf(stdout, "%s %s: %.6g | %.6g\n", w.Name, def.Name, v[0], v[1])
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two sets of runs of the same code disagree beyond the bound on %v", over)
	}
	return nil
}

// pySpread is the run-to-run spread as the driver computes it: the distance
// between the first and third quartiles, as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method, linear
// interpolation), as a share of the median (mean of the middle two when the
// count is even, as statistics.median does).
func pySpread(values []float64) float64 {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	mid := x[n/2]
	if n%2 == 0 {
		mid = (x[n/2-1] + x[n/2]) / 2
	}
	return (quartile(3) - quartile(1)) / mid
}
