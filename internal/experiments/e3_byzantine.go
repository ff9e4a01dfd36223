package experiments

import (
	"fmt"

	"fastread"
	"fastread/internal/atomicity"
	"fastread/internal/quorum"
	"fastread/internal/stats"
	"fastread/internal/workload"
)

// RunE3 reproduces the Section 6.1 claim (algorithm of Figure 5): with
// S > (R+2)t + (R+1)b, a workload in which b servers actively misbehave
// (forged timestamps, stale replays, memory loss, inflated seen sets) still
// completes every read in one round-trip with an atomic history and never
// returns a value the writer did not write.
func RunE3(opts Options) ([]*stats.Table, error) {
	type scenario struct {
		servers, faulty, malicious, readers int
		behaviors                           []fastread.ByzantineBehavior
		label                               string
	}
	scenarios := []scenario{
		{8, 1, 1, 1, []fastread.ByzantineBehavior{fastread.ByzantineForgeTimestamp}, "forged timestamps"},
		{8, 1, 1, 1, []fastread.ByzantineBehavior{fastread.ByzantineStaleReplay}, "stale replay"},
		{11, 1, 1, 2, []fastread.ByzantineBehavior{fastread.ByzantineMemoryLoss}, "memory loss vs r1"},
		{11, 1, 1, 2, []fastread.ByzantineBehavior{fastread.ByzantineInflateSeen}, "inflated seen sets"},
	}
	if !opts.Quick {
		scenarios = append(scenarios,
			scenario{14, 2, 2, 1, []fastread.ByzantineBehavior{fastread.ByzantineForgeTimestamp, fastread.ByzantineMute}, "forgery + mute"},
			scenario{17, 2, 2, 2, []fastread.ByzantineBehavior{fastread.ByzantineStaleReplay, fastread.ByzantineInflateSeen}, "replay + inflated seen"},
		)
	}

	table := stats.NewTable(
		"E3 — fast Byzantine-tolerant register under active attack (S > (R+2)t + (R+1)b)",
		"S", "t", "b", "R", "attack", "writes", "reads", "rounds/read", "forged value returned", "atomic",
	)
	table.AddNote("the malicious servers use a signing key that is not the writer's; unforgeability makes their forgeries detectable")

	for _, sc := range scenarios {
		cfg := quorum.Config{Servers: sc.servers, Faulty: sc.faulty, Malicious: sc.malicious, Readers: sc.readers}
		if !cfg.FastReadPossible() {
			return nil, fmt.Errorf("e3: scenario %+v violates the Byzantine bound", sc)
		}
		// The last b servers misbehave, the scenario's behaviours assigned
		// round-robin.
		malicious := make(map[int]fastread.ByzantineBehavior, sc.malicious)
		for i := sc.servers - sc.malicious + 1; i <= sc.servers; i++ {
			malicious[i] = sc.behaviors[(i-1)%len(sc.behaviors)]
		}
		cluster, err := fastread.NewCluster(fastread.Config{
			Servers:   sc.servers,
			Faulty:    sc.faulty,
			Malicious: sc.malicious,
			Readers:   sc.readers,
			Protocol:  fastread.ProtocolFastByzantine,
			Byzantine: malicious,
		})
		if err != nil {
			return nil, fmt.Errorf("e3: deployment %+v: %w", sc, err)
		}

		ctx, cancel := runContext()
		result, err := workload.Run(ctx, workload.Config{
			Writes:         opts.scale(40, 10),
			ReadsPerReader: opts.scale(60, 12),
		}, clusterClients(cluster))
		cancel()
		rounds := cluster.Stats().ReadRoundsPerOp
		_ = cluster.Close()
		if err != nil {
			return nil, fmt.Errorf("e3: workload %+v: %w", sc, err)
		}

		report, err := atomicity.CheckSWMR(result.History)
		if err != nil {
			return nil, err
		}
		forgedReturned := false
		for _, op := range result.History.Reads() {
			if string(op.Result) == "forged-value" || string(op.Result) == "forged-prev" {
				forgedReturned = true
			}
		}

		table.AddRow(
			sc.servers, sc.faulty, sc.malicious, sc.readers, sc.label,
			result.CompletedWrites, result.CompletedReads,
			rounds, yesNo(forgedReturned), yesNo(report.OK),
		)
		if !report.OK {
			table.AddNote("UNEXPECTED violation for %+v: %s", sc, report)
		}
	}
	return []*stats.Table{table}, nil
}
