package experiments

import (
	"time"

	"fastread/internal/sim"
	"fastread/internal/stats"
)

// RunE8 quantifies the Section 8 discussion of the folklore theorem that
// "atomic reads must write". In a message-passing system a fast read does
// modify server state — every server that answers it updates its seen set
// and per-reader counter — but it does so within the single round-trip the
// read already needs, instead of the dedicated write-back round the ABD read
// performs. Each protocol runs twice, the one write alone and the same write
// followed by a block of reads, and the server-state mutations are counted at
// quiescence: what the second run adds is what the reads wrote.
func RunE8() ([]*stats.Table, error) {
	table := stats.NewTable(
		"E8 — server-state mutations caused by reads (the sense in which atomic reads \"write\")",
		"protocol", "S", "t", "mutations by the write", "reads", "mutations by the reads", "mutations/read", "rounds/read",
	)
	table.AddNote("fast reads piggyback their state update (seen sets, counters) on the single round-trip; ABD reads pay a dedicated write-back round, which changes nothing once the write has reached every server; max-min and regular reads leave no state behind")

	const servers, faulty = 5, 1
	for _, proto := range []string{"fast", "abd", "maxmin", "regular"} {
		// The write is submitted at 1ms and the first read at 1.7ms, so the
		// short run holds the write alone and the long one adds 50 reads.
		sc := sim.Scenario{
			Name: "e8 " + proto, Protocol: proto,
			Servers: servers, Faulty: faulty, Readers: 1,
			Duration: 1500 * time.Microsecond,
			WriteGap: time.Second, ReadGap: 5 * time.Millisecond,
		}
		alone, err := run(sc, 1)
		if err != nil {
			return nil, err
		}
		sc.Duration = 250 * time.Millisecond
		res, err := run(sc, 1)
		if err != nil {
			return nil, err
		}
		byReads := res.Stats.ServerMutations - alone.Stats.ServerMutations
		table.AddRow(
			proto, servers, faulty,
			alone.Stats.ServerMutations, res.Stats.Reads,
			byReads, float64(byReads)/float64(res.Stats.Reads),
			res.Stats.ReadRoundsPerOp,
		)
	}
	return []*stats.Table{table}, nil
}
