package regular

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
)

type deployment struct {
	t   *testing.T
	cfg quorum.Config
	net *transport.InMemNetwork
}

func newDeployment(t *testing.T, cfg quorum.Config) *deployment {
	t.Helper()
	d := &deployment{t: t, cfg: cfg, net: transport.NewInMemNetwork()}
	t.Cleanup(func() { _ = d.net.Close() })
	for i := 1; i <= cfg.Servers; i++ {
		node, err := d.net.Join(types.Server(i))
		if err != nil {
			t.Fatalf("join server %d: %v", i, err)
		}
		srv, err := NewServer(ServerConfig{ID: types.Server(i)}, node)
		if err != nil {
			t.Fatalf("new server %d: %v", i, err)
		}
		srv.Start()
		t.Cleanup(srv.Stop)
	}
	return d
}

func (d *deployment) ctx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	d.t.Cleanup(cancel)
	return ctx
}

func (d *deployment) writer() *Writer {
	d.t.Helper()
	node, err := d.net.Join(types.Writer())
	if err != nil {
		d.t.Fatal(err)
	}
	w, err := NewWriter(ClientConfig{Quorum: d.cfg}, node)
	if err != nil {
		d.t.Fatal(err)
	}
	return w
}

func (d *deployment) reader(i int) *Reader {
	d.t.Helper()
	node, err := d.net.Join(types.Reader(i))
	if err != nil {
		d.t.Fatal(err)
	}
	r, err := NewReader(ClientConfig{Quorum: d.cfg}, node)
	if err != nil {
		d.t.Fatal(err)
	}
	return r
}

func TestWriteThenRead(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 10}
	d := newDeployment(t, cfg)
	w := d.writer()
	r := d.reader(1)

	res, err := r.Read(d.ctx())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.IsBottom() {
		t.Errorf("initial read = %s, want ⊥", res.Value)
	}
	if err := w.Write(d.ctx(), types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	res, err = r.Read(d.ctx())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(types.Value("v1")) || res.Timestamp != 1 {
		t.Errorf("read = %s ts=%d, want v1 ts=1", res.Value, res.Timestamp)
	}
	if res.RoundTrips != 1 {
		t.Errorf("round trips = %d, want 1", res.RoundTrips)
	}
}

func TestRegularityAfterCompletedWrites(t *testing.T) {
	// With no concurrent writes, every read must return the last written
	// value (regularity).
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 3}
	d := newDeployment(t, cfg)
	w := d.writer()
	readers := []*Reader{d.reader(1), d.reader(2), d.reader(3)}
	for i := 1; i <= 10; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		if err := w.Write(d.ctx(), val); err != nil {
			t.Fatal(err)
		}
		for ri, r := range readers {
			res, err := r.Read(d.ctx())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Value.Equal(val) {
				t.Fatalf("reader %d read %s after write of %s", ri+1, res.Value, val)
			}
		}
	}
}

func TestSupportsManyReadersAndMinorityCrash(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 20}
	d := newDeployment(t, cfg)
	w := d.writer()
	if err := w.Write(d.ctx(), types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	d.net.Crash(types.Server(1))
	d.net.Crash(types.Server(2))
	for i := 1; i <= 20; i++ {
		r := d.reader(i)
		res, err := r.Read(d.ctx())
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if !res.Value.Equal(types.Value("v1")) {
			t.Fatalf("reader %d read %s", i, res.Value)
		}
	}
}

func TestReadsAreAlwaysSingleRound(t *testing.T) {
	cfg := quorum.Config{Servers: 3, Faulty: 1, Readers: 1}
	d := newDeployment(t, cfg)
	w := d.writer()
	r := d.reader(1)
	for i := 0; i < 5; i++ {
		if err := w.Write(d.ctx(), types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(d.ctx()); err != nil {
			t.Fatal(err)
		}
	}
	reads, rounds, _ := r.Stats()
	if reads != 5 || rounds != 5 {
		t.Errorf("stats = %d/%d, want 5/5", reads, rounds)
	}
	writes, wRounds := w.Stats()
	if writes != 5 || wRounds != 5 {
		t.Errorf("writer stats = %d/%d, want 5/5", writes, wRounds)
	}
}

func TestNewOldInversionIsPossible(t *testing.T) {
	// This is the behaviour that distinguishes regular from atomic: with an
	// incomplete write present at a minority of servers, one reader may see
	// the new value while a later read by another reader (whose quorum
	// misses the updated servers) returns the old one. We engineer exactly
	// that schedule to document the weakness the paper's fast ATOMIC
	// algorithm eliminates.
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 2}
	d := newDeployment(t, cfg)
	w := d.writer()
	r1 := d.reader(1)
	r2 := d.reader(2)

	if err := w.Write(d.ctx(), types.Value("old")); err != nil {
		t.Fatal(err)
	}

	// The second write reaches only servers 1 and 2 (a minority), then
	// stalls: block the writer from the rest.
	for i := 3; i <= 5; i++ {
		d.net.Block(types.Writer(), types.Server(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = w.Write(ctx, types.Value("new")) // incomplete, by construction

	// Reader 1's quorum is forced to include server 1 (sees "new"): block r1
	// from servers 4 and 5 so its majority must contain servers 1..3.
	d.net.Block(types.Reader(1), types.Server(4))
	d.net.Block(types.Reader(1), types.Server(5))
	res1, err := r1.Read(d.ctx())
	if err != nil {
		t.Fatal(err)
	}

	// Reader 2's quorum is forced to miss servers 1 and 2 (sees only "old").
	d.net.Block(types.Reader(2), types.Server(1))
	d.net.Block(types.Reader(2), types.Server(2))
	res2, err := r2.Read(d.ctx())
	if err != nil {
		t.Fatal(err)
	}

	if !res1.Value.Equal(types.Value("new")) {
		t.Skipf("schedule did not produce the inversion precondition (r1 read %s)", res1.Value)
	}
	if !res2.Value.Equal(types.Value("old")) {
		t.Fatalf("expected new/old inversion under this schedule, but r2 read %s", res2.Value)
	}
	// res1 (earlier) returned "new" while res2 (later) returned "old":
	// allowed for a regular register, forbidden for an atomic one.
}

func TestConfigurationRejectedWithoutMajority(t *testing.T) {
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	node, err := net.Join(types.Writer())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quorum.Config{Servers: 2, Faulty: 1, Readers: 1}
	if _, err := NewWriter(ClientConfig{Quorum: cfg}, node); !errors.Is(err, ErrNotRegularizable) {
		t.Errorf("err = %v, want ErrNotRegularizable", err)
	}
	rNode, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(ClientConfig{Quorum: cfg}, rNode); !errors.Is(err, ErrNotRegularizable) {
		t.Errorf("err = %v, want ErrNotRegularizable", err)
	}
}

func TestValidation(t *testing.T) {
	cfg := quorum.Config{Servers: 3, Faulty: 1, Readers: 1}
	d := newDeployment(t, cfg)
	rNode, err := d.net.Join(types.Reader(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(ClientConfig{Quorum: cfg}, rNode); !errors.Is(err, ErrNotWriter) {
		t.Errorf("err = %v, want ErrNotWriter", err)
	}
	w := d.writer()
	if err := w.Write(d.ctx(), types.Bottom()); !errors.Is(err, ErrBottomWrite) {
		t.Errorf("err = %v, want ErrBottomWrite", err)
	}
	if _, err := NewServer(ServerConfig{ID: types.Reader(1)}, rNode); err == nil {
		t.Error("reader identity accepted as server")
	}
	wNode2, err := d.net.Join(types.Reader(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(ClientConfig{Quorum: quorum.Config{}}, wNode2); err == nil {
		t.Error("invalid quorum accepted")
	}
}
