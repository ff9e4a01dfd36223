package fastread

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fastread/internal/driver"
	"fastread/internal/transport"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// newRegister starts a deployment of cfg and registers its default
// (empty-key) register; the deployment closes when the test ends.
func newRegister(tb testing.TB, cfg Config) (*Store, *Register) {
	tb.Helper()
	store, err := NewStore(cfg)
	if err != nil {
		tb.Fatalf("NewStore: %v", err)
	}
	tb.Cleanup(func() { _ = store.Close() })
	reg, err := store.Register("")
	if err != nil {
		tb.Fatal(err)
	}
	return store, reg
}

// withNetwork puts cfg on an in-memory network the test builds and keeps,
// so it can isolate processes and hold links on it.
func withNetwork(cfg Config, opts ...transport.InMemOption) (Config, *transport.InMemNetwork) {
	net := transport.NewInMemNetwork(opts...)
	cfg.Transport = &inMemTransport{net: net}
	return cfg, net
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
			_, reg := newRegister(t, configFor(p))
			ctx := testCtx(t)

			r, err := reg.Reader(1)
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

			if err := reg.Writer().Write(ctx, []byte("hello")); err != nil {
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
			store, reg := newRegister(t, cfg)
			ctx := testCtx(t)

			if err := reg.Writer().Write(ctx, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := store.CrashServer(cfg.Servers); err != nil {
				t.Fatal(err)
			}
			if err := reg.Writer().Write(ctx, []byte("v2")); err != nil {
				t.Fatalf("write after crash: %v", err)
			}
			r, err := reg.Reader(1)
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
	store, reg := newRegister(t, Config{Servers: 4, Faulty: 1, Readers: 1})
	ctx := testCtx(t)
	r, _ := reg.Reader(1)
	for i := 0; i < 3; i++ {
		if err := reg.Writer().Write(ctx, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s := store.Stats()
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
	clocked, _ := withNetwork(Config{Servers: 4, Faulty: 1, Readers: 1},
		transport.WithDefaultDelay(time.Millisecond), transport.WithClock(transport.NewVirtualClock()))
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
		{name: "delay on a virtual clock", cfg: clocked},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := NewStore(tt.cfg)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
			if err == nil {
				_ = s.Close()
			}
		})
	}

	if _, err := NewStore(Config{Servers: 0}); err == nil {
		t.Error("zero servers accepted")
	}
}

// TestMajorityBoundAtNewStore pins that every majority protocol refuses a
// deployment without a correct majority (t ≥ S/2) at NewStore: the drivers'
// Validate is the one place the bound is checked, no protocol constructor
// repeats it.
func TestMajorityBoundAtNewStore(t *testing.T) {
	for _, p := range []Protocol{ProtocolABD, ProtocolMaxMin, ProtocolRegular} {
		t.Run(string(p), func(t *testing.T) {
			s, err := NewStore(Config{Servers: 2, Faulty: 1, Readers: 1, Protocol: p})
			if err == nil {
				_ = s.Close()
				t.Fatal("deployment without a correct majority accepted")
			}
			if !strings.Contains(err.Error(), "requires t < S/2") {
				t.Errorf("err = %v, want the majority bound", err)
			}
			s, err = NewStore(Config{Servers: 3, Faulty: 1, Readers: 1, Protocol: p})
			if err != nil {
				t.Fatalf("smallest majority deployment refused: %v", err)
			}
			_ = s.Close()
		})
	}
}

func TestReaderAndServerIndexValidation(t *testing.T) {
	store, reg := newRegister(t, Config{Servers: 4, Faulty: 1, Readers: 1})
	if _, err := reg.Reader(0); !errors.Is(err, ErrUnknownReader) {
		t.Errorf("Reader(0) err = %v", err)
	}
	if _, err := reg.Reader(2); !errors.Is(err, ErrUnknownReader) {
		t.Errorf("Reader(2) err = %v", err)
	}
	if err := store.CrashServer(0); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("CrashServer(0) err = %v", err)
	}
	if err := store.CrashServer(9); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("CrashServer(9) err = %v", err)
	}
	if got := len(reg.Readers()); got != 1 {
		t.Errorf("Readers() len = %d", got)
	}
	if store.Config().Servers != 4 {
		t.Error("Config() should round-trip")
	}
}

func TestConcurrentClientsThroughFacade(t *testing.T) {
	_, reg := newRegister(t, Config{Servers: 7, Faulty: 1, Readers: 4})
	ctx := testCtx(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := reg.Writer().Write(ctx, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	for _, r := range reg.Readers() {
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
