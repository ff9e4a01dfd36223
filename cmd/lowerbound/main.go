// Command lowerbound executes the paper's lower-bound constructions
// (Proposition 5 for crash failures, Proposition 10 for arbitrary failures)
// against a register deployment on a virtual clock and narrates the resulting
// partial run, with virtual timestamps: the same flags print the same bytes.
//
// Usage:
//
//	lowerbound -S 4 -t 1 -R 2                 # crash construction, paper's reader
//	lowerbound -S 4 -t 1 -R 2 -reader naive   # attack the predicate-less strawman
//	lowerbound -S 7 -t 1 -b 1 -R 2 -byz       # Byzantine construction
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fastread/internal/adversary"
	"fastread/internal/quorum"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lowerbound", flag.ContinueOnError)
	var (
		servers   = fs.Int("S", 4, "number of servers")
		faulty    = fs.Int("t", 1, "maximum faulty servers")
		malicious = fs.Int("b", 0, "maximum malicious servers (Byzantine construction only)")
		readers   = fs.Int("R", 2, "number of readers")
		byz       = fs.Bool("byz", false, "run the arbitrary-failure construction (Figure 6)")
		reader    = fs.String("reader", "paper", "reader implementation to attack: paper | naive")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var kind adversary.ReaderKind
	switch *reader {
	case "paper":
		kind = adversary.ReaderPaper
	case "naive":
		kind = adversary.ReaderNaive
	default:
		return fmt.Errorf("unknown reader kind %q (want paper or naive)", *reader)
	}

	cfg := quorum.Config{Servers: *servers, Faulty: *faulty, Malicious: *malicious, Readers: *readers}
	fmt.Fprintf(out, "configuration: %v\n", cfg)
	fmt.Fprintf(out, "fast implementation possible: %v (bound: S > (R+2)t + (R+1)b)\n\n", cfg.FastReadPossible())

	var (
		res adversary.ConstructionResult
		err error
	)
	if *byz {
		res, err = adversary.RunByzantineConstruction(cfg, kind)
	} else {
		res, err = adversary.RunCrashConstruction(cfg, kind)
	}
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "schedule narrative:")
	for i, line := range res.Narrative {
		fmt.Fprintf(out, "  %2d. %s\n", i+1, line)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "recorded history:")
	fmt.Fprint(out, res.History)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "verdict:", res.Report)
	if res.Violation {
		fmt.Fprintln(out, "=> the schedule produced an atomicity violation, as the paper predicts for this configuration")
	} else {
		fmt.Fprintln(out, "=> the schedule could not break atomicity, as the paper predicts for this configuration")
	}
	return nil
}
