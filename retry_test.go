package fastread

import (
	"context"
	"errors"
	"testing"
	"time"

	"fastread/internal/transport"
	"fastread/internal/types"
)

// silence holds both directions between the client and each server; heal
// drops what the links held and opens them again.
func silence(net *transport.InMemNetwork, c types.ProcessID, servers ...types.ProcessID) (heal func()) {
	for _, s := range servers {
		net.Hold(c, s)
		net.Hold(s, c)
	}
	return func() {
		for _, s := range servers {
			net.DropHeld(c, s)
			net.DropHeld(s, c)
		}
	}
}

// TestRetryAfterSilencedServersHeal is the regression test for the
// BenchmarkSaturation hang: with enough servers unreachable the quorum can
// never form and a plain Read blocks forever, but ReadWithRetry abandons the
// stalled attempts and succeeds once the network heals.
func TestRetryAfterSilencedServersHeal(t *testing.T) {
	cfg, net := withNetwork(Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast})
	_, reg := newRegister(t, cfg)
	ctx := testCtx(t)

	if err := reg.Writer().Write(ctx, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	r, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}

	// Silence two of four servers towards the reader: the read quorum of
	// S-t = 3 can no longer form, so every read until the heal is stranded
	// (the protocols never retransmit).
	heal := time.AfterFunc(250*time.Millisecond, silence(net, types.Reader(1), types.Server(1), types.Server(2)))
	defer heal.Stop()

	policy := RetryPolicy{Attempts: 10, Timeout: 100 * time.Millisecond, Backoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	res, err := ReadWithRetry(ctx, r, policy)
	if err != nil {
		t.Fatalf("ReadWithRetry after heal: %v", err)
	}
	if string(res.Value) != "healed" {
		t.Fatalf("read %q, want %q", res.Value, "healed")
	}

	// Writes stranded the same way also recover.
	heal2 := time.AfterFunc(250*time.Millisecond, silence(net, types.Writer(), types.Server(1), types.Server(2)))
	defer heal2.Stop()
	if err := WriteWithRetry(ctx, reg.Writer(), []byte("healed-2"), policy); err != nil {
		t.Fatalf("WriteWithRetry after heal: %v", err)
	}
	res, err = r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "healed-2" {
		t.Fatalf("read %q, want %q", res.Value, "healed-2")
	}
}

// TestRetryExhaustionAndErrorClassification pins the helper's decision
// table: a permanently-silenced quorum exhausts the attempts with
// ErrRetriesExhausted, protocol errors are not retried, and a cancelled
// parent context wins over the attempt error.
func TestRetryExhaustionAndErrorClassification(t *testing.T) {
	cfg, net := withNetwork(Config{Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolFast})
	_, reg := newRegister(t, cfg)
	ctx := testCtx(t)
	r, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}

	heal := silence(net, types.Reader(1), types.Server(1), types.Server(2))

	fast := RetryPolicy{Attempts: 3, Timeout: 30 * time.Millisecond, Backoff: 5 * time.Millisecond, MaxBackoff: 10 * time.Millisecond}
	start := time.Now()
	if _, err := ReadWithRetry(ctx, r, fast); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("exhaustion took %v; the helper exists to bound this", elapsed)
	}

	// A cancelled parent context surfaces context.Canceled, not a retry.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ReadWithRetry(cancelled, r, fast); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	heal()

	// Non-timeout errors pass through unretried: a nil write is a usage
	// error the writer rejects immediately.
	if err := WriteWithRetry(ctx, reg.Writer(), nil, fast); err == nil || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("nil write err = %v, want immediate usage error", err)
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p != DefaultRetryPolicy() {
		t.Fatalf("zero policy -> %+v, want %+v", p, DefaultRetryPolicy())
	}
	partial := RetryPolicy{Attempts: 7}.withDefaults()
	if partial.Attempts != 7 || partial.Timeout != DefaultRetryPolicy().Timeout {
		t.Fatalf("partial policy -> %+v", partial)
	}
}
