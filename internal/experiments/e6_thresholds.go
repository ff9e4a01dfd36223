package experiments

import (
	"fmt"

	"fastread/internal/adversary"
	"fastread/internal/quorum"
	"fastread/internal/stats"
)

// RunE6 reproduces the Section 9 summary: the exact resilience thresholds.
// For a sweep of (S, t, b) it tabulates the closed-form maximum number of
// readers that still admits a fast implementation, and — for a subset of
// rows — cross-validates the boundary empirically: the adversarial schedule
// is harmless at R = maxR and produces a violation at R = maxR + 1.
func RunE6() ([]*stats.Table, error) {
	closedForm := stats.NewTable(
		"E6a — closed-form resilience bounds (Section 9)",
		"S", "t", "b", "max fast readers", "min servers for R=2", "regular register fast?",
	)
	type row struct {
		s, t, b int
	}
	var rows []row
	for _, s := range []int{4, 5, 7, 10, 13, 16, 25} {
		rows = append(rows, row{s, 1, 0})
		if s >= 7 {
			rows = append(rows, row{s, 2, 0})
		}
		if s >= 10 {
			rows = append(rows, row{s, 2, 1})
		}
		if s >= 13 {
			rows = append(rows, row{s, 3, 2})
		}
	}
	for _, r := range rows {
		cfg := quorum.Config{Servers: r.s, Faulty: r.t, Malicious: r.b, Readers: 2}
		maxR := quorum.MaxFastReaders(r.s, r.t, r.b)
		maxRStr := fmt.Sprint(maxR)
		if maxR < 0 {
			maxRStr = "none"
		}
		closedForm.AddRow(
			r.s, r.t, r.b, maxRStr,
			quorum.MinServersForFast(2, r.t, r.b),
			yesNo(cfg.FastRegularPossible()),
		)
	}
	closedForm.AddNote("max fast readers = largest R with S > (R+2)t + (R+1)b; with b=0 this is ⌈S/t⌉−3 rounded per the strict inequality R < S/t − 2")

	empirical := stats.NewTable(
		"E6b — empirical cross-validation of the boundary (adversarial schedule at R = maxR and R = maxR+1)",
		"S", "t", "b", "maxR", "violation at R=maxR", "violation at R=maxR+1", "matches paper",
	)
	for _, c := range []row{{8, 1, 0}, {7, 1, 0}, {10, 2, 0}, {13, 1, 1}, {13, 1, 0}} {
		maxR := quorum.MaxFastReaders(c.s, c.t, c.b)
		if maxR < 2 {
			// The executable construction needs at least two readers.
			continue
		}
		runOnce := func(readers int) (bool, error) {
			cfg := quorum.Config{Servers: c.s, Faulty: c.t, Malicious: c.b, Readers: readers}
			if c.b == 0 {
				res, err := adversary.RunCrashConstruction(cfg, adversary.ReaderPaper)
				if err != nil {
					return false, err
				}
				return res.Violation, nil
			}
			res, err := adversary.RunByzantineConstruction(cfg, adversary.ReaderPaper)
			if err != nil {
				return false, err
			}
			return res.Violation, nil
		}
		atBound, err := runOnce(maxR)
		if err != nil {
			return nil, fmt.Errorf("e6: S=%d t=%d b=%d R=%d: %w", c.s, c.t, c.b, maxR, err)
		}
		beyond, err := runOnce(maxR + 1)
		if err != nil {
			return nil, fmt.Errorf("e6: S=%d t=%d b=%d R=%d: %w", c.s, c.t, c.b, maxR+1, err)
		}
		empirical.AddRow(c.s, c.t, c.b, maxR, yesNo(atBound), yesNo(beyond), checkMark(!atBound && beyond))
	}
	empirical.AddNote("the paper predicts: no violation while R ≤ maxR, violation for R = maxR+1")

	return []*stats.Table{closedForm, empirical}, nil
}
