package fastread

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fastread/internal/driver"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func allProtocols() []Protocol {
	return []Protocol{ProtocolFast, ProtocolFastByzantine, ProtocolABD, ProtocolMaxMin, ProtocolRegular}
}

func configFor(p Protocol) Config {
	cfg := Config{Servers: 5, Faulty: 1, Readers: 2, Protocol: p}
	if p == ProtocolFastByzantine {
		cfg = Config{Servers: 8, Faulty: 1, Malicious: 1, Readers: 1, Protocol: p}
	}
	return cfg
}

func TestAllProtocolsWriteThenRead(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(string(p), func(t *testing.T) {
			cluster, err := NewCluster(configFor(p))
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer cluster.Close()
			ctx := testCtx(t)

			r, err := cluster.Reader(1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Read(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != nil || res.Version != 0 {
				t.Errorf("initial read = %q v%d, want nil v0", res.Value, res.Version)
			}

			if err := cluster.Writer().Write(ctx, []byte("hello")); err != nil {
				t.Fatalf("write: %v", err)
			}
			res, err = r.Read(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if string(res.Value) != "hello" || res.Version != 1 {
				t.Errorf("read = %q v%d, want hello v1", res.Value, res.Version)
			}

			wantRounds := 1
			if p == ProtocolABD {
				wantRounds = 2
			}
			if res.RoundTrips != wantRounds {
				t.Errorf("read round trips = %d, want %d", res.RoundTrips, wantRounds)
			}
		})
	}
}

func TestAllProtocolsSurviveCrashes(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(string(p), func(t *testing.T) {
			cfg := configFor(p)
			cluster, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			ctx := testCtx(t)

			if err := cluster.Writer().Write(ctx, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := cluster.CrashServer(cfg.Servers); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Writer().Write(ctx, []byte("v2")); err != nil {
				t.Fatalf("write after crash: %v", err)
			}
			r, err := cluster.Reader(1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Read(ctx)
			if err != nil {
				t.Fatalf("read after crash: %v", err)
			}
			if string(res.Value) != "v2" {
				t.Errorf("read = %q, want v2", res.Value)
			}
		})
	}
}

func TestClusterStats(t *testing.T) {
	cluster, err := NewCluster(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)
	r, _ := cluster.Reader(1)
	for i := 0; i < 3; i++ {
		if err := cluster.Writer().Write(ctx, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s := cluster.Stats()
	if s.Writes != 3 || s.Reads != 3 {
		t.Errorf("stats ops = %d writes / %d reads", s.Writes, s.Reads)
	}
	if s.ReadRoundsPerOp != 1 || s.WriteRoundsPerOp != 1 {
		t.Errorf("rounds per op = %f/%f, want 1/1", s.ReadRoundsPerOp, s.WriteRoundsPerOp)
	}
	if s.DeliveredMsgs == 0 {
		t.Error("no messages delivered according to stats")
	}
	if s.ServerMutations == 0 {
		t.Error("no server mutations recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr error
	}{
		{
			name:    "fast beyond reader bound",
			cfg:     Config{Servers: 4, Faulty: 1, Readers: 2, Protocol: ProtocolFast},
			wantErr: ErrTooManyReaders,
		},
		{
			name:    "byzantine beyond bound",
			cfg:     Config{Servers: 5, Faulty: 1, Malicious: 1, Readers: 1, Protocol: ProtocolFastByzantine},
			wantErr: ErrTooManyReaders,
		},
		{
			name:    "unknown protocol",
			cfg:     Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: Protocol("nope")},
			wantErr: ErrUnknownProtocol,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewCluster(tt.cfg)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}

	if _, err := NewCluster(Config{Servers: 2, Faulty: 1, Readers: 1, Protocol: ProtocolABD}); err == nil {
		t.Error("ABD without a correct majority accepted")
	}
	if _, err := NewCluster(Config{Servers: 0}); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestReaderAndServerIndexValidation(t *testing.T) {
	cluster, err := NewCluster(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Reader(0); !errors.Is(err, ErrUnknownReader) {
		t.Errorf("Reader(0) err = %v", err)
	}
	if _, err := cluster.Reader(2); !errors.Is(err, ErrUnknownReader) {
		t.Errorf("Reader(2) err = %v", err)
	}
	if err := cluster.CrashServer(0); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("CrashServer(0) err = %v", err)
	}
	if err := cluster.CrashServer(9); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("CrashServer(9) err = %v", err)
	}
	if got := len(cluster.Readers()); got != 1 {
		t.Errorf("Readers() len = %d", got)
	}
	if cluster.Config().Servers != 4 {
		t.Error("Config() should round-trip")
	}
}

func TestNetworkDelayIncreasesLatencyProportionally(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	delay := 5 * time.Millisecond
	fast, err := NewCluster(Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast, Transport: InMemory(WithDelay(delay))})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	abdCluster, err := NewCluster(Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolABD, Transport: InMemory(WithDelay(delay))})
	if err != nil {
		t.Fatal(err)
	}
	defer abdCluster.Close()
	ctx := testCtx(t)

	if err := fast.Writer().Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := abdCluster.Writer().Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}

	measure := func(r Reader) time.Duration {
		start := time.Now()
		const n = 5
		for i := 0; i < n; i++ {
			if _, err := r.Read(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / n
	}
	fastReader, _ := fast.Reader(1)
	abdReader, _ := abdCluster.Reader(1)
	fastLat := measure(fastReader)
	abdLat := measure(abdReader)

	// The fast read is one round-trip (≈ 2·delay), ABD two (≈ 4·delay). Allow
	// generous slack but require a clear separation.
	if fastLat >= abdLat {
		t.Errorf("fast read latency %v not below ABD latency %v", fastLat, abdLat)
	}
	if abdLat < 3*delay {
		t.Errorf("ABD latency %v implausibly small for two round-trips of %v", abdLat, delay)
	}
}

func TestConcurrentClientsThroughFacade(t *testing.T) {
	cluster, err := NewCluster(Config{Servers: 7, Faulty: 1, Readers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := testCtx(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := cluster.Writer().Write(ctx, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	for _, r := range cluster.Readers() {
		wg.Add(1)
		go func(r Reader) {
			defer wg.Done()
			var last int64
			for i := 0; i < 30; i++ {
				res, err := r.Read(ctx)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if res.Version < last {
					t.Errorf("version went backwards: %d after %d", res.Version, last)
					return
				}
				last = res.Version
			}
		}(r)
	}
	wg.Wait()
}

func TestBoundsHelpers(t *testing.T) {
	if !FastReadPossible(4, 1, 0, 1) || FastReadPossible(4, 1, 0, 2) {
		t.Error("crash bound helpers wrong")
	}
	if !FastReadPossible(8, 1, 1, 1) || FastReadPossible(5, 1, 1, 1) {
		t.Error("byzantine bound helpers wrong")
	}
	if MaxFastReaders(10, 2, 0) != 2 {
		t.Errorf("MaxFastReaders(10,2,0) = %d, want 2", MaxFastReaders(10, 2, 0))
	}
	if MinServersForFast(1, 1, 0) != 4 {
		t.Errorf("MinServersForFast(1,1,0) = %d, want 4", MinServersForFast(1, 1, 0))
	}
	if !RegularPossible(3, 1, 0) || RegularPossible(2, 1, 0) {
		t.Error("RegularPossible wrong")
	}
}

// TestProtocolString pins that a Protocol constant IS its registry name: the
// cmd binaries' -protocol flag, the scenario DSL and Config.Protocol all
// speak the same five strings.
func TestProtocolString(t *testing.T) {
	want := []string{"fast", "fast-byz", "abd", "maxmin", "regular"}
	for i, p := range allProtocols() {
		if string(p) != want[i] {
			t.Errorf("protocol %d is %q, want %q", i, p, want[i])
		}
		if _, ok := driver.Lookup(string(p)); !ok {
			t.Errorf("no driver registered under %q", p)
		}
	}
}
