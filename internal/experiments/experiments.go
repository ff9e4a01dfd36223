// Package experiments contains one driver per reproduced paper artifact
// (E1..E8). Each driver returns text tables, which cmd/fastbench prints.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fastread"
	"fastread/internal/stats"
	"fastread/internal/types"
	"fastread/internal/workload"
)

// Options tunes every experiment.
type Options struct {
	// Quick shrinks workloads and sweeps so the whole suite runs in seconds;
	// used by tests.
	Quick bool
	// Seed seeds deterministic parts of the workloads.
	Seed int64
	// Delay is the per-message one-way delay used by the latency experiments
	// (E7); zero selects a default of 1ms (200µs in Quick mode).
	Delay time.Duration
}

// delay returns the effective per-message delay.
func (o Options) delay() time.Duration {
	if o.Delay > 0 {
		return o.Delay
	}
	if o.Quick {
		return 200 * time.Microsecond
	}
	return time.Millisecond
}

// scale multiplies a full-size count down in Quick mode.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment couples an identifier with its driver.
type Experiment struct {
	// ID is the experiment identifier (E1..E8).
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the paper artifact the experiment reproduces.
	Paper string
	// Run executes the experiment.
	Run func(Options) ([]*stats.Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "E1",
			Title: "Fast reads and writes under crash failures",
			Paper: "Figure 2, Section 4",
			Run:   RunE1,
		},
		{
			ID:    "E2",
			Title: "Crash-model lower bound construction",
			Paper: "Figures 1, 3, 4; Proposition 5",
			Run:   RunE2,
		},
		{
			ID:    "E3",
			Title: "Fast reads under arbitrary (Byzantine) failures",
			Paper: "Figure 5, Section 6.1",
			Run:   RunE3,
		},
		{
			ID:    "E4",
			Title: "Byzantine lower bound construction",
			Paper: "Figure 6, Proposition 10",
			Run:   RunE4,
		},
		{
			ID:    "E5",
			Title: "Multi-writer impossibility",
			Paper: "Figure 7, Proposition 11",
			Run:   RunE5,
		},
		{
			ID:    "E6",
			Title: "Exact resilience thresholds",
			Paper: "Section 9 summary",
			Run:   RunE6,
		},
		{
			ID:    "E7",
			Title: "Read latency: fast vs ABD vs max-min vs regular",
			Paper: "Sections 1 and 8 comparison",
			Run:   RunE7,
		},
		{
			ID:    "E8",
			Title: "\"Atomic reads must write\": server-state mutations per read",
			Paper: "Section 8 discussion",
			Run:   RunE8,
		},
	}
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}

// clusterWriter adapts a façade writer to the workload interface.
func clusterWriter(w fastread.Writer) workload.Writer {
	return workload.WriterFunc(func(ctx context.Context, v types.Value) error {
		return w.Write(ctx, v)
	})
}

// clusterReader adapts a façade reader to the workload interface.
func clusterReader(r fastread.Reader) workload.Reader {
	return workload.ReaderFunc(func(ctx context.Context) (types.Value, types.Timestamp, int, error) {
		res, err := r.Read(ctx)
		if err != nil {
			return nil, 0, 0, err
		}
		return types.Value(res.Value), types.Timestamp(res.Version), res.RoundTrips, nil
	})
}

// clusterClients builds workload clients for every reader of a cluster.
func clusterClients(c *fastread.Cluster) workload.Clients {
	clients := workload.Clients{Writer: clusterWriter(c.Writer())}
	for _, r := range c.Readers() {
		clients.Readers = append(clients.Readers, clusterReader(r))
	}
	return clients
}

// yesNo renders a boolean for table cells.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// checkMark renders expectation matches.
func checkMark(b bool) string {
	if b {
		return "✓"
	}
	return "✗"
}

// runContext returns the bounded context experiments run under.
func runContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Minute)
}

// formatRatio renders a ratio with two decimals, guarding against division by
// zero.
func formatRatio(num, den time.Duration) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(num)/float64(den))
}
