package experiments

import (
	"fmt"
	"time"

	"fastread/internal/sim"
	"fastread/internal/stats"
)

// RunE1 reproduces the claim of Section 4 (algorithm of Figure 2): for every
// configuration with R < S/t − 2, a concurrent workload with t servers
// crashing mid-run completes every read and every write in exactly one
// round-trip, and the recorded history satisfies the four atomicity
// conditions of Section 3.1.
func RunE1() ([]*stats.Table, error) {
	table := stats.NewTable(
		"E1 — fast crash-tolerant register: every operation is one round-trip and the history is atomic",
		"S", "t", "R", "writes", "reads", "crashes", "rounds/read", "rounds/write", "atomic", "read p50", "read p99",
	)
	table.AddNote("workload: concurrent writer and R readers; t servers crash mid-run; every message takes Δ plus a seeded jitter in [0, Δ/2)")

	for i, sh := range []struct{ servers, faulty, readers int }{
		{4, 1, 1}, {7, 1, 2}, {10, 2, 2}, {13, 3, 2}, {16, 2, 5}, {25, 3, 5},
	} {
		// 60 writes and 80 reads per reader, each stream well inside its gap.
		sc := sim.Scenario{
			Name:     fmt.Sprintf("e1 S=%d t=%d R=%d", sh.servers, sh.faulty, sh.readers),
			Protocol: "fast",
			Servers:  sh.servers, Faulty: sh.faulty, Readers: sh.readers,
			Jitter: delta / 2, Duration: 480 * time.Millisecond,
			WriteGap: 8 * time.Millisecond, ReadGap: 6 * time.Millisecond,
		}
		// The last t servers crash, spread over the run.
		for c := 1; c <= sh.faulty; c++ {
			sc.Faults = append(sc.Faults, sim.FaultEvent{
				At:     time.Duration(c) * sc.Duration / time.Duration(sh.faulty+1),
				Kind:   sim.FaultCrash,
				Server: sh.servers - c + 1,
			})
		}
		res, err := run(sc, int64(i+1))
		if err != nil {
			return nil, err
		}
		lat := readLatency(res)
		table.AddRow(
			sh.servers, sh.faulty, sh.readers,
			res.Stats.Writes, res.Stats.Reads, len(sc.Faults),
			res.Stats.ReadRoundsPerOp, res.Stats.WriteRoundsPerOp,
			yesNo(res.Check.OK),
			inDelta(lat.Median), inDelta(lat.P99),
		)
	}
	return []*stats.Table{table}, nil
}
