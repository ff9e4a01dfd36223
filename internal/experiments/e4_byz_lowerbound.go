package experiments

import (
	"fmt"

	"fastread/internal/adversary"
	"fastread/internal/quorum"
	"fastread/internal/stats"
)

// RunE4 reproduces the arbitrary-failure lower bound (Proposition 10,
// Figure 6): the memory-loss construction is executed against the paper's
// Byzantine-tolerant algorithm on both sides of the S > (R+2)t + (R+1)b
// bound. Expected shape: a violation exactly when the bound is not met.
func RunE4() ([]*stats.Table, error) {
	type scenario struct {
		servers, faulty, malicious, readers int
	}
	scenarios := []scenario{
		{7, 1, 1, 2},  // exactly at the bound: 7 = (2+2)·1 + 3·1
		{9, 1, 1, 2},  // within the bound
		{9, 1, 1, 3},  // at the bound with three readers: 9 ≤ 5+4
		{12, 1, 1, 3}, // within the bound (12 > 9)
		{11, 2, 1, 2}, // at/below the bound: 11 ≤ 8+3
		{13, 2, 1, 2}, // within the bound: 13 > 11
	}

	table := stats.NewTable(
		"E4 — executing the Proposition 10 schedule (malicious blocks lose their memory towards r1)",
		"S", "t", "b", "R", "fast possible (S>(R+2)t+(R+1)b)", "rR read", "r1 final read", "atomicity violated", "matches paper",
	)
	table.AddNote("readers run the paper's Figure 5 algorithm with writer signatures; the adversary controls b·(R+1) malicious servers")

	for _, sc := range scenarios {
		cfg := quorum.Config{Servers: sc.servers, Faulty: sc.faulty, Malicious: sc.malicious, Readers: sc.readers}
		res, err := adversary.RunByzantineConstruction(cfg, adversary.ReaderPaper)
		if err != nil {
			return nil, fmt.Errorf("e4: %+v: %w", sc, err)
		}
		matches := res.Violation == !res.BoundSatisfied
		table.AddRow(
			sc.servers, sc.faulty, sc.malicious, sc.readers,
			yesNo(res.BoundSatisfied),
			fmt.Sprintf("ts=%d", res.LastReaderTS),
			fmt.Sprintf("ts=%d", res.FirstReaderTS),
			yesNo(res.Violation),
			checkMark(matches),
		)
	}
	return []*stats.Table{table}, nil
}
