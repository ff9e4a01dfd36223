// Package experiments contains one driver per reproduced paper artifact
// (E1..E8). Each driver returns text tables; all eight, rendered by
// `go run ./cmd/fastbench -markdown`, are the checked-in REPRODUCTION.md.
// Every experiment runs on the virtual clock — E1, E3, E7 and E8 as
// sim.Scenario literals handed to sim.Run, E2, E4, E5 and E6 as
// internal/adversary's scripted schedules — so a table is the same bytes on
// every machine and under every goroutine schedule, and the full-size suite
// takes well under a second of wall time.
package experiments

import (
	"fmt"
	"io"
	"time"

	"fastread/internal/sim"
	"fastread/internal/stats"
)

// delta is Δ, the one-way message delay of every scenario, in virtual time:
// the paper states its latencies in message delays, and so do the tables.
const delta = time.Millisecond

// run executes one scenario with a message delay of Δ and insists the table
// row it feeds is whole: a skipped submission (a gap mis-sized against the
// pipeline depth), a timeout or an abort would silently shrink a table.
func run(sc sim.Scenario, seed int64) (*sim.Result, error) {
	sc.Delay = delta
	res := sim.Run(sc, seed)
	if res.RunErr != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, res.RunErr)
	}
	if res.SubmitSkips+res.TimedOut+res.EndAborts+res.FailedOps > 0 {
		return nil, fmt.Errorf("%s: of %d operations %d were skipped, %d timed out, %d were aborted and %d failed",
			sc.Name, res.Ops, res.SubmitSkips, res.TimedOut, res.EndAborts, res.FailedOps)
	}
	return res, nil
}

// readLatency summarises the run's read latencies: the distance between the
// virtual invocation and return stamps of every recorded read.
func readLatency(res *sim.Result) stats.LatencySummary {
	var samples []time.Duration
	for _, h := range res.Histories {
		for _, op := range h.Reads() {
			samples = append(samples, op.Returned.Sub(op.Invoked))
		}
	}
	return stats.SummarizeDurations(samples)
}

// inDelta renders a virtual duration as a multiple of Δ.
func inDelta(d time.Duration) string {
	return fmt.Sprintf("%.3gΔ", float64(d)/float64(delta))
}

// Experiment couples an identifier with its driver.
type Experiment struct {
	// ID is the experiment identifier (E1..E8).
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the paper artifact the experiment reproduces.
	Paper string
	// Run executes the experiment.
	Run func() ([]*stats.Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Fast reads and writes under crash failures", "Figure 2, Section 4", RunE1},
		{"E2", "Crash-model lower bound construction", "Figures 1, 3, 4; Proposition 5", RunE2},
		{"E3", "Fast reads under arbitrary (Byzantine) failures", "Figure 5, Section 6.1", RunE3},
		{"E4", "Byzantine lower bound construction", "Figure 6, Proposition 10", RunE4},
		{"E5", "Multi-writer impossibility", "Figure 7, Proposition 11", RunE5},
		{"E6", "Exact resilience thresholds", "Section 9 summary", RunE6},
		{"E7", "Read latency: fast vs ABD vs max-min vs regular", "Sections 1 and 8 comparison", RunE7},
		{"E8", "\"Atomic reads must write\": server-state mutations per read", "Section 8 discussion", RunE8},
	}
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// Render runs the given experiments in order and writes their tables to out,
// as aligned text or as GitHub Markdown. All() rendered as Markdown is
// REPRODUCTION.md, byte for byte.
func Render(out io.Writer, selected []Experiment, markdown bool) error {
	heading := "== %s — %s (%s)\n\n"
	if markdown {
		fmt.Fprint(out, "<!-- go run ./cmd/fastbench -markdown > REPRODUCTION.md (compared by TestPaperTables; do not edit) -->\n\n")
		heading = "## %s — %s (%s)\n\n"
	}
	for _, exp := range selected {
		fmt.Fprintf(out, heading, exp.ID, exp.Title, exp.Paper)
		tables, err := exp.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		for _, tbl := range tables {
			if markdown {
				fmt.Fprintln(out, tbl.Markdown())
			} else {
				fmt.Fprintln(out, tbl.String())
			}
		}
	}
	return nil
}

// yesNo renders a boolean for table cells.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// checkMark renders expectation matches.
func checkMark(b bool) string {
	if b {
		return "✓"
	}
	return "✗"
}

// formatRatio renders a ratio with two decimals, guarding against division by
// zero.
func formatRatio(num, den time.Duration) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(num)/float64(den))
}
