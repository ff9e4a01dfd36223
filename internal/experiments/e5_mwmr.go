package experiments

import (
	"fmt"

	"fastread/internal/adversary"
	"fastread/internal/quorum"
	"fastread/internal/stats"
)

// RunE5 reproduces the multi-writer impossibility (Proposition 11,
// Figure 7): with two writers, a register whose writes skip the timestamp
// query phase (and are therefore fast) orders writes by writer rank instead
// of real time and fails linearizability, whereas the two-round ABD MWMR
// register passes under the same schedule. This is the executable
// counterpart of the proof's run-interchange argument.
func RunE5() ([]*stats.Table, error) {
	table := stats.NewTable(
		"E5 — multi-writer registers: fast (one-round) writes vs ABD (two-round) writes",
		"S", "t", "register", "write rounds", "read returns", "linearizable",
	)
	table.AddNote("schedule: writer 2 writes, then writer 1 writes, then a reader reads; the later write must win")

	for _, s := range []int{3, 5, 7, 9} {
		cfg := quorum.Config{Servers: s, Faulty: (s - 1) / 2, Readers: 3}
		res, err := adversary.RunMWMRDemonstration(cfg)
		if err != nil {
			return nil, fmt.Errorf("e5: S=%d: %w", s, err)
		}
		naiveValue := "⊥"
		if reads := res.NaiveHistory.Reads(); len(reads) > 0 && !reads[len(reads)-1].Result.IsBottom() {
			naiveValue = string(reads[len(reads)-1].Result)
		}
		abdValue := "⊥"
		if reads := res.ABDHistory.Reads(); len(reads) > 0 && !reads[len(reads)-1].Result.IsBottom() {
			abdValue = string(reads[len(reads)-1].Result)
		}
		table.AddRow(s, cfg.Faulty, "naive fast MWMR", 1, naiveValue, yesNo(res.NaiveReport.OK))
		table.AddRow(s, cfg.Faulty, "ABD MWMR", 2, abdValue, yesNo(res.ABDReport.OK))
	}
	return []*stats.Table{table}, nil
}
