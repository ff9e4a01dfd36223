// Command fastbench runs the paper-reproduction experiments (E1..E8, see
// internal/experiments) and prints their tables.
//
// Usage:
//
//	fastbench                 # run every experiment at full size
//	fastbench -exp E2,E7      # run a subset
//	fastbench -quick          # reduced sizes (seconds instead of minutes)
//	fastbench -markdown       # emit GitHub Markdown tables
//	fastbench -delay 2ms      # per-message delay for the latency experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fastread/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fastbench:", err)
		os.Exit(1)
	}
}

// run parses arguments and executes the selected experiments.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fastbench", flag.ContinueOnError)
	var (
		expList  = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		quick    = fs.Bool("quick", false, "run reduced-size experiments")
		markdown = fs.Bool("markdown", false, "render tables as GitHub Markdown")
		delay    = fs.Duration("delay", 0, "per-message one-way delay for latency experiments (default 1ms, 200µs with -quick)")
		seed     = fs.Int64("seed", 1, "workload seed")
		list     = fs.Bool("list", false, "list available experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-4s %-60s (%s)\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed, Delay: *delay}

	selected := experiments.All()
	if *expList != "" {
		selected = nil
		for _, id := range strings.Split(*expList, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			exp, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(experiments.IDs(), ", "))
			}
			selected = append(selected, exp)
		}
	}

	start := time.Now()
	for _, exp := range selected {
		fmt.Fprintf(out, "== %s — %s (%s)\n\n", exp.ID, exp.Title, exp.Paper)
		tables, err := exp.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		for _, tbl := range tables {
			if *markdown {
				fmt.Fprintln(out, tbl.Markdown())
			} else {
				fmt.Fprintln(out, tbl.String())
			}
		}
	}
	fmt.Fprintf(out, "completed %d experiment(s) in %v\n", len(selected), time.Since(start).Round(time.Millisecond))
	return nil
}
