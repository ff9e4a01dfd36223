package experiments

import (
	"context"
	"fmt"

	"fastread"
	"fastread/internal/stats"
)

// RunE8 quantifies the Section 8 discussion of the folklore theorem that
// "atomic reads must write". In a message-passing system a fast read does
// modify server state — every server that answers it updates its seen set
// and per-reader counter — but it does so within the single round-trip the
// read already needs, instead of the dedicated write-back round the ABD read
// performs. The experiment counts server-state mutations per read for the
// fast register, the ABD register and the regular register (whose reads
// leave no protocol state behind beyond the reply).
func RunE8(opts Options) ([]*stats.Table, error) {
	table := stats.NewTable(
		"E8 — server-state mutations caused by reads (the sense in which atomic reads \"write\")",
		"protocol", "S", "t", "reads", "server mutations attributable to reads", "mutations/read", "extra round-trips for reads",
	)
	table.AddNote("fast reads piggyback their state update (seen sets, counters) on the single round-trip; ABD reads pay a dedicated write-back round; regular reads leave no state behind")

	const servers, faulty, readers = 5, 1, 1
	readCount := opts.scale(50, 10)

	for _, proto := range []fastread.Protocol{fastread.ProtocolFast, fastread.ProtocolABD, fastread.ProtocolRegular} {
		cluster, err := fastread.NewCluster(fastread.Config{
			Servers:  servers,
			Faulty:   faulty,
			Readers:  readers,
			Protocol: proto,
		})
		if err != nil {
			return nil, fmt.Errorf("e8: %v: %w", proto, err)
		}
		ctx, cancel := runContext()
		// One write so reads have something to observe, then measure the
		// mutation counter across a block of reads.
		if err := cluster.Writer().Write(ctx, []byte("baseline")); err != nil {
			cancel()
			_ = cluster.Close()
			return nil, fmt.Errorf("e8: %v write: %w", proto, err)
		}
		before := cluster.Stats()
		reader, err := cluster.Reader(1)
		if err != nil {
			cancel()
			_ = cluster.Close()
			return nil, err
		}
		extraRounds := 0
		for i := 0; i < readCount; i++ {
			res, err := readOnce(ctx, reader)
			if err != nil {
				cancel()
				_ = cluster.Close()
				return nil, fmt.Errorf("e8: %v read %d: %w", proto, i, err)
			}
			extraRounds += res.RoundTrips - 1
		}
		after := cluster.Stats()
		cancel()
		_ = cluster.Close()

		mutations := after.ServerMutations - before.ServerMutations
		table.AddRow(
			string(proto), servers, faulty, readCount,
			mutations,
			float64(mutations)/float64(readCount),
			extraRounds,
		)
	}
	return []*stats.Table{table}, nil
}

// readOnce performs a single read through the façade.
func readOnce(ctx context.Context, r fastread.Reader) (fastread.ReadResult, error) {
	return r.Read(ctx)
}
