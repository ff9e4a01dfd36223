package experiments

import (
	"fmt"
	"time"

	"fastread"
	"fastread/internal/atomicity"
	"fastread/internal/stats"
	"fastread/internal/workload"
)

// RunE7 reproduces the time-complexity comparison the paper draws in its
// introduction and in Section 8: under a uniform per-message network delay,
// the fast atomic read and the regular read cost one round-trip (≈ 2·delay),
// the ABD atomic read costs two (≈ 4·delay), and the max-min read costs one
// client round-trip that hides an extra server-to-server hop (≈ 3·delay).
// Absolute numbers depend on the machine; the shape (ordering and ratios) is
// what the paper predicts.
func RunE7(opts Options) ([]*stats.Table, error) {
	delay := opts.delay()
	sizes := []int{4, 8}
	if !opts.Quick {
		sizes = append(sizes, 16, 32)
	}

	table := stats.NewTable(
		fmt.Sprintf("E7 — read latency with a uniform one-way message delay of %v", delay),
		"S", "t", "R", "protocol", "rounds/read", "read p50", "read p95", "vs fast", "atomic", "semantics",
	)
	table.AddNote("fast and regular are one round-trip; max-min adds a server-to-server hop; ABD needs a second client round-trip")

	reads := opts.scale(20, 6)
	writes := opts.scale(5, 2)

	for _, s := range sizes {
		faulty := 1
		readers := 1
		protocols := []struct {
			p         fastread.Protocol
			semantics string
		}{
			{fastread.ProtocolFast, "atomic"},
			{fastread.ProtocolABD, "atomic"},
			{fastread.ProtocolMaxMin, "atomic"},
			{fastread.ProtocolRegular, "regular"},
		}
		var fastMedian time.Duration
		for _, proto := range protocols {
			cluster, err := fastread.NewCluster(fastread.Config{
				Servers:   s,
				Faulty:    faulty,
				Readers:   readers,
				Protocol:  proto.p,
				Transport: fastread.InMemory(fastread.WithDelay(delay)),
			})
			if err != nil {
				return nil, fmt.Errorf("e7: S=%d %v: %w", s, proto.p, err)
			}
			ctx, cancel := runContext()
			result, err := workload.Run(ctx, workload.Config{
				Writes:         writes,
				ReadsPerReader: reads,
			}, clusterClients(cluster))
			cancel()
			if err != nil {
				_ = cluster.Close()
				return nil, fmt.Errorf("e7: workload S=%d %v: %w", s, proto.p, err)
			}
			cstats := cluster.Stats()
			_ = cluster.Close()

			report, err := atomicity.CheckSWMR(result.History)
			if err != nil {
				return nil, err
			}
			atomicOK := report.OK
			if proto.p == fastread.ProtocolRegular {
				// Regular registers only promise regularity; check that
				// instead, and report atomicity as not applicable.
				regReport, err := atomicity.CheckRegular(result.History)
				if err != nil {
					return nil, err
				}
				atomicOK = regReport.OK
			}

			if proto.p == fastread.ProtocolFast {
				fastMedian = result.ReadLatency.Median
			}
			table.AddRow(
				s, faulty, readers, string(proto.p),
				cstats.ReadRoundsPerOp,
				result.ReadLatency.Median, result.ReadLatency.P95,
				formatRatio(result.ReadLatency.Median, fastMedian),
				yesNo(atomicOK),
				proto.semantics,
			)
		}
	}
	return []*stats.Table{table}, nil
}
