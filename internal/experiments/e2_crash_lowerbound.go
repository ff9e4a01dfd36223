package experiments

import (
	"fmt"

	"fastread/internal/adversary"
	"fastread/internal/quorum"
	"fastread/internal/stats"
)

// RunE2 reproduces the crash-model lower bound (Proposition 5, Figures 3/4):
// the proof's partial-run schedule is executed against (a) the paper's own
// algorithm and (b) the naive predicate-less fast reader, across
// configurations on both sides of the R < S/t − 2 bound. The expected shape:
// the paper's algorithm violates atomicity exactly when the bound is not
// met; the naive reader violates it as soon as there are two readers.
func RunE2() ([]*stats.Table, error) {
	type scenario struct {
		servers, faulty, readers int
	}
	scenarios := []scenario{
		{4, 1, 2},  // exactly at the bound: R = S/t − 2
		{5, 1, 3},  // at the bound with three readers
		{7, 1, 2},  // within the bound (R < 5)
		{10, 2, 3}, // at the bound: 10 ≤ (3+2)*2
		{6, 2, 2},  // beyond the bound with t=2
		{13, 2, 4}, // within the bound (4 < 4.5)
		{9, 1, 4},  // within the bound (4 < 7)
		{8, 2, 2},  // exactly at the bound
	}

	table := stats.NewTable(
		"E2 — executing the Proposition 5 schedule (partial runs wr, pr_i, ◇pr_i, prA..prC)",
		"S", "t", "R", "fast possible (R<S/t−2)", "reader", "rR read", "r1 final read", "atomicity violated", "matches paper",
	)
	table.AddNote("the paper predicts a violation for its algorithm exactly when fast reads are impossible; the naive reader (no seen predicate) is expected to fail whenever R ≥ 2")

	for _, sc := range scenarios {
		cfg := quorum.Config{Servers: sc.servers, Faulty: sc.faulty, Readers: sc.readers}
		for _, kind := range []adversary.ReaderKind{adversary.ReaderPaper, adversary.ReaderNaive} {
			res, err := adversary.RunCrashConstruction(cfg, kind)
			if err != nil {
				return nil, fmt.Errorf("e2: %v %v: %w", sc, kind, err)
			}
			expectViolation := true
			if kind == adversary.ReaderPaper {
				expectViolation = !res.BoundSatisfied
			}
			matches := res.Violation == expectViolation
			table.AddRow(
				sc.servers, sc.faulty, sc.readers,
				yesNo(res.BoundSatisfied),
				kind.String(),
				fmt.Sprintf("ts=%d", res.LastReaderTS),
				fmt.Sprintf("ts=%d", res.FirstReaderTS),
				yesNo(res.Violation),
				checkMark(matches),
			)
		}
	}
	return []*stats.Table{table}, nil
}
