package experiments

import (
	"fmt"
	"time"

	"fastread/internal/sim"
	"fastread/internal/stats"
)

// RunE7 reproduces the time-complexity comparison the paper draws in its
// introduction and in Section 8, in the paper's own unit: with every message
// taking exactly one delay Δ, the fast atomic read and the regular read cost
// one round-trip (2Δ), the ABD atomic read costs two (4Δ), and the max-min
// read costs one client round-trip that hides an extra server-to-server hop
// (3Δ). The network has no jitter, so the latencies are exact: every read of
// a row takes the same time.
func RunE7() ([]*stats.Table, error) {
	table := stats.NewTable(
		"E7 — read latency in message delays (every message takes exactly Δ on the virtual clock)",
		"S", "t", "R", "protocol", "rounds/read", "read min", "read p50", "read max", "vs fast", "atomic", "semantics",
	)
	table.AddNote("fast and regular are one round-trip; max-min adds a server-to-server hop; ABD needs a second client round-trip")

	for _, servers := range []int{4, 8, 16, 32} {
		var fastMedian time.Duration
		for _, proto := range []struct{ name, semantics string }{
			{"fast", "atomic"}, {"abd", "atomic"}, {"maxmin", "atomic"}, {"regular", "regular"},
		} {
			// 5 writes and 20 reads; sim.Run checks the regular register
			// against regularity and the others against atomicity.
			res, err := run(sim.Scenario{
				Name:     fmt.Sprintf("e7 S=%d %s", servers, proto.name),
				Protocol: proto.name,
				Servers:  servers, Faulty: 1, Readers: 1,
				Duration: 200 * time.Millisecond,
				WriteGap: 40 * time.Millisecond, ReadGap: 10 * time.Millisecond,
			}, 1)
			if err != nil {
				return nil, err
			}
			lat := readLatency(res)
			if proto.name == "fast" {
				fastMedian = lat.Median
			}
			table.AddRow(
				servers, 1, 1, proto.name,
				res.Stats.ReadRoundsPerOp,
				inDelta(lat.Min), inDelta(lat.Median), inDelta(lat.Max),
				formatRatio(lat.Median, fastMedian),
				yesNo(res.Check.OK),
				proto.semantics,
			)
		}
	}
	return []*stats.Table{table}, nil
}
