// Command fastbench prints the paper-reproduction experiments' tables
// (E1..E8, see internal/experiments). Every experiment runs on the virtual
// clock, so the output is the same bytes on every machine and on every run,
// and REPRODUCTION.md at the repository root is exactly
//
//	go run ./cmd/fastbench -markdown > REPRODUCTION.md
//
// (internal/experiments' TestPaperTables and CI compare the two).
//
// Usage:
//
//	fastbench                 # print every experiment's tables
//	fastbench -exp E2,E7      # a subset
//	fastbench -markdown       # GitHub Markdown tables
//	fastbench -list           # name the experiments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fastread/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fastbench:", err)
		os.Exit(1)
	}
}

// run parses arguments and prints the selected experiments.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fastbench", flag.ContinueOnError)
	var (
		expList  = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		markdown = fs.Bool("markdown", false, "render tables as GitHub Markdown")
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
	return experiments.Render(out, selected, *markdown)
}
