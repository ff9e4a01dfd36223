package experiments

import (
	"fmt"

	"fastread"
	"fastread/internal/atomicity"
	"fastread/internal/fault"
	"fastread/internal/quorum"
	"fastread/internal/stats"
	"fastread/internal/types"
	"fastread/internal/workload"
)

// RunE1 reproduces the claim of Section 4 (algorithm of Figure 2): for every
// configuration with R < S/t − 2, a concurrent workload with t servers
// crashing mid-run completes every read and every write in exactly one
// round-trip, and the recorded history satisfies the four atomicity
// conditions of Section 3.1.
func RunE1(opts Options) ([]*stats.Table, error) {
	type scenario struct {
		servers, faulty, readers int
	}
	scenarios := []scenario{
		{4, 1, 1},
		{7, 1, 2},
		{10, 2, 2},
		{13, 3, 2},
	}
	if !opts.Quick {
		scenarios = append(scenarios, scenario{16, 2, 5}, scenario{25, 3, 5})
	}

	table := stats.NewTable(
		"E1 — fast crash-tolerant register: every operation is one round-trip and the history is atomic",
		"S", "t", "R", "writes", "reads", "crashes", "rounds/read", "rounds/write", "atomic", "read p50", "read p99",
	)
	table.AddNote("workload: concurrent writer and R readers; t servers crash mid-run; values are unique per write")

	for _, sc := range scenarios {
		cfg := quorum.Config{Servers: sc.servers, Faulty: sc.faulty, Readers: sc.readers}
		if !cfg.FastReadPossible() {
			return nil, fmt.Errorf("e1: scenario %v violates the fast-read bound", sc)
		}
		cluster, err := fastread.NewCluster(fastread.Config{
			Servers:  sc.servers,
			Faulty:   sc.faulty,
			Readers:  sc.readers,
			Protocol: fastread.ProtocolFast,
		})
		if err != nil {
			return nil, fmt.Errorf("e1: cluster %v: %w", sc, err)
		}

		writes := opts.scale(60, 12)
		reads := opts.scale(80, 15)
		// Crash t servers spread over the run.
		var events []fault.CrashEvent
		for i := 0; i < sc.faulty; i++ {
			events = append(events, fault.CrashEvent{
				Server:   types.Server(sc.servers - i),
				AfterOps: (i + 1) * writes / (sc.faulty + 1),
			})
		}
		schedule := fault.NewCrashSchedule(events...)

		// The crash schedule needs the in-memory network; fail loudly rather
		// than silently running a fault-free experiment on a backend without
		// fault injection.
		net, err := cluster.Network()
		if err != nil {
			_ = cluster.Close()
			return nil, fmt.Errorf("e1: %w", err)
		}

		ctx, cancel := runContext()
		result, err := workload.Run(ctx, workload.Config{
			Writes:         writes,
			ReadsPerReader: reads,
			Crashes:        schedule,
			CrashFn:        func(p types.ProcessID) { net.Crash(p) },
		}, clusterClients(cluster))
		cancel()
		if err != nil {
			_ = cluster.Close()
			return nil, fmt.Errorf("e1: workload %v: %w", sc, err)
		}

		report, err := atomicity.CheckSWMR(result.History)
		if err != nil {
			_ = cluster.Close()
			return nil, fmt.Errorf("e1: check %v: %w", sc, err)
		}
		clusterStats := cluster.Stats()
		_ = cluster.Close()

		table.AddRow(
			sc.servers, sc.faulty, sc.readers,
			result.CompletedWrites, result.CompletedReads, len(events),
			clusterStats.ReadRoundsPerOp, clusterStats.WriteRoundsPerOp,
			yesNo(report.OK),
			result.ReadLatency.Median, result.ReadLatency.P99,
		)
		if !report.OK {
			table.AddNote("UNEXPECTED violation for %v: %s", sc, report)
		}
	}
	return []*stats.Table{table}, nil
}
