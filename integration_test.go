package fastread

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fastread/internal/atomicity"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// mustNetwork returns the cluster's in-memory network; these tests always
// run on the in-memory backend, where the capability is present.
func mustNetwork(t *testing.T, c *Cluster) *transport.InMemNetwork {
	t.Helper()
	net, err := c.Network()
	if err != nil {
		t.Fatalf("Network(): %v", err)
	}
	return net
}

// TestWorkloadConsistencyPerProtocol drives every protocol through a
// concurrent workload with mid-run crashes and verifies the protocol's
// advertised consistency level: atomicity for the fast, Byzantine, ABD and
// max-min registers, regularity for the regular register.
func TestWorkloadConsistencyPerProtocol(t *testing.T) {
	scenarios := []struct {
		name     string
		cfg      Config
		expected string // "atomic" or "regular"
	}{
		{"fast", Config{Servers: 7, Faulty: 1, Readers: 2, Protocol: ProtocolFast}, "atomic"},
		{"fast-byz", Config{Servers: 11, Faulty: 1, Malicious: 1, Readers: 2, Protocol: ProtocolFastByzantine}, "atomic"},
		{"abd", Config{Servers: 5, Faulty: 2, Readers: 3, Protocol: ProtocolABD}, "atomic"},
		{"maxmin", Config{Servers: 5, Faulty: 2, Readers: 3, Protocol: ProtocolMaxMin}, "atomic"},
		{"regular", Config{Servers: 5, Faulty: 2, Readers: 3, Protocol: ProtocolRegular}, "regular"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cluster, err := NewCluster(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			// Server S crashes after the tenth completed operation.
			var completed atomic.Int64
			h := driveRegister(ctx, t, cluster.reg, 25, 30, func() {
				if completed.Add(1) == 10 {
					mustNetwork(t, cluster).Crash(types.Server(sc.cfg.Servers))
				}
			})
			if t.Failed() {
				return
			}
			if !mustNetwork(t, cluster).Crashed(types.Server(sc.cfg.Servers)) {
				t.Fatalf("server %d was not crashed mid-run", sc.cfg.Servers)
			}

			var report atomicity.Report
			if sc.expected == "atomic" {
				report, err = atomicity.CheckSWMR(h)
			} else {
				report, err = atomicity.CheckRegular(h)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK {
				t.Fatalf("%s consistency violated:\n%s", sc.expected, report)
			}

			// Round-trip counts must match the protocol's promise.
			stats := cluster.Stats()
			switch sc.cfg.Protocol {
			case ProtocolABD:
				if stats.ReadRoundsPerOp != 2 {
					t.Errorf("ABD rounds/read = %f, want 2", stats.ReadRoundsPerOp)
				}
			default:
				if stats.ReadRoundsPerOp != 1 {
					t.Errorf("%s rounds/read = %f, want 1", sc.name, stats.ReadRoundsPerOp)
				}
			}
		})
	}
}

// TestFallbackReadsReturnPreviousValue exercises the maxTS−1 path of the fast
// reader through the public API: when a write is stalled before reaching a
// quorum, readers may serve the previous value (and report UsedFallback),
// but must never go backwards afterwards.
func TestFallbackReadsReturnPreviousValue(t *testing.T) {
	cluster, err := NewCluster(Config{Servers: 7, Faulty: 1, Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	if err := cluster.Writer().Write(ctx, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// Stall the next write: it reaches a single server only.
	for i := 2; i <= 7; i++ {
		mustNetwork(t, cluster).Block(types.Writer(), types.Server(i))
	}
	stallCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if err := cluster.Writer().Write(stallCtx, []byte("stalled")); err == nil {
		t.Fatal("stalled write unexpectedly completed")
	}

	sawFallback := false
	var floor int64
	for i := 0; i < 8; i++ {
		for r := 1; r <= 2; r++ {
			reader, err := cluster.Reader(r)
			if err != nil {
				t.Fatal(err)
			}
			res, err := reader.Read(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.UsedFallback {
				sawFallback = true
			}
			if res.Version < floor {
				t.Fatalf("read went backwards: %d after %d", res.Version, floor)
			}
			floor = res.Version
			switch res.Version {
			case 1:
				if string(res.Value) != "committed" {
					t.Fatalf("version 1 carries %q", res.Value)
				}
			case 2:
				if string(res.Value) != "stalled" {
					t.Fatalf("version 2 carries %q", res.Value)
				}
			}
		}
	}
	if !sawFallback {
		t.Log("no read needed the fallback path under this interleaving (acceptable, depends on timing)")
	}
	stats := cluster.Stats()
	if stats.FallbackReads > 0 && !sawFallback {
		t.Error("stats report fallback reads but none was observed")
	}
}

// TestStatsFallbackCounterMatchesResults cross-checks the façade's fallback
// counter against per-read results.
func TestStatsFallbackCounterMatchesResults(t *testing.T) {
	cluster, err := NewCluster(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	reader, _ := cluster.Reader(1)
	fallbacks := int64(0)
	for i := 0; i < 10; i++ {
		if err := cluster.Writer().Write(ctx, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		res, err := reader.Read(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.UsedFallback {
			fallbacks++
		}
	}
	if got := cluster.Stats().FallbackReads; got != fallbacks {
		t.Errorf("Stats.FallbackReads = %d, observed %d", got, fallbacks)
	}
}
