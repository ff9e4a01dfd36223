package abd

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fastread/internal/driver"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// regularDeployment wires the regular register as it ships: every server,
// writer and reader comes from the registered "regular" driver.
type regularDeployment struct {
	t   *testing.T
	cfg quorum.Config
	drv driver.Driver
	net *transport.InMemNetwork
}

func newRegularDeployment(t *testing.T, cfg quorum.Config) *regularDeployment {
	t.Helper()
	drv, ok := driver.Lookup("regular")
	if !ok {
		t.Fatal(`no driver registered under "regular"`)
	}
	d := &regularDeployment{t: t, cfg: cfg, drv: drv, net: transport.NewInMemNetwork()}
	t.Cleanup(func() { _ = d.net.Close() })
	for i := 1; i <= cfg.Servers; i++ {
		node, err := d.net.Join(types.Server(i))
		if err != nil {
			t.Fatalf("join server %d: %v", i, err)
		}
		srv, err := drv.NewServer(driver.ServerConfig{ID: types.Server(i)}, node)
		if err != nil {
			t.Fatalf("new server %d: %v", i, err)
		}
		if _, ok := srv.(*Server); !ok {
			t.Fatalf("regular server is a %T, want the ABD *Server", srv)
		}
		srv.Start()
		t.Cleanup(srv.Stop)
	}
	return d
}

func (d *regularDeployment) ctx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	d.t.Cleanup(cancel)
	return ctx
}

func (d *regularDeployment) writer() *protoutil.Writer {
	d.t.Helper()
	node, err := d.net.Join(types.Writer())
	if err != nil {
		d.t.Fatal(err)
	}
	w, err := d.drv.NewWriter(driver.ClientConfig{Quorum: d.cfg}, node)
	if err != nil {
		d.t.Fatal(err)
	}
	return w
}

func (d *regularDeployment) reader(i int) *protoutil.Reader {
	d.t.Helper()
	node, err := d.net.Join(types.Reader(i))
	if err != nil {
		d.t.Fatal(err)
	}
	r, err := d.drv.NewReader(driver.ClientConfig{Quorum: d.cfg}, node)
	if err != nil {
		d.t.Fatal(err)
	}
	return r
}

func TestRegularWriteThenRead(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 10}
	d := newRegularDeployment(t, cfg)
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
	d := newRegularDeployment(t, cfg)
	w := d.writer()
	readers := []*protoutil.Reader{d.reader(1), d.reader(2), d.reader(3)}
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

func TestRegularSupportsManyReadersAndMinorityCrash(t *testing.T) {
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 20}
	d := newRegularDeployment(t, cfg)
	w := d.writer()
	if err := w.Write(d.ctx(), types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	d.net.Isolate(types.Server(1))
	d.net.Isolate(types.Server(2))
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

func TestRegularReadsAreAlwaysSingleRound(t *testing.T) {
	cfg := quorum.Config{Servers: 3, Faulty: 1, Readers: 1}
	d := newRegularDeployment(t, cfg)
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
	// algorithm eliminates — and that ABD's write-back, the round the
	// regular read leaves out, prevents.
	cfg := quorum.Config{Servers: 5, Faulty: 2, Readers: 2}
	d := newRegularDeployment(t, cfg)
	w := d.writer()
	r1 := d.reader(1)
	r2 := d.reader(2)

	if err := w.Write(d.ctx(), types.Value("old")); err != nil {
		t.Fatal(err)
	}

	// The second write reaches only servers 1 and 2 (a minority), then
	// stalls: block the writer from the rest.
	for i := 3; i <= 5; i++ {
		d.net.Hold(types.Writer(), types.Server(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = w.Write(ctx, types.Value("new")) // incomplete, by construction

	// Reader 1's quorum is forced to include server 1 (sees "new"): block r1
	// from servers 4 and 5 so its majority must contain servers 1..3.
	d.net.Hold(types.Reader(1), types.Server(4))
	d.net.Hold(types.Reader(1), types.Server(5))
	res1, err := r1.Read(d.ctx())
	if err != nil {
		t.Fatal(err)
	}

	// Reader 2's quorum is forced to miss servers 1 and 2 (sees only "old").
	d.net.Hold(types.Reader(2), types.Server(1))
	d.net.Hold(types.Reader(2), types.Server(2))
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

func TestRegularValidation(t *testing.T) {
	cfg := quorum.Config{Servers: 3, Faulty: 1, Readers: 1}
	d := newRegularDeployment(t, cfg)
	rNode, err := d.net.Join(types.Reader(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.drv.NewWriter(driver.ClientConfig{Quorum: cfg}, rNode); !errors.Is(err, ErrNotWriter) {
		t.Errorf("err = %v, want ErrNotWriter", err)
	}
	w := d.writer()
	if err := w.Write(d.ctx(), types.Bottom()); !errors.Is(err, ErrBottomWrite) {
		t.Errorf("err = %v, want ErrBottomWrite", err)
	}
	if _, err := d.drv.NewServer(driver.ServerConfig{ID: types.Reader(1)}, rNode); err == nil {
		t.Error("reader identity accepted as server")
	}
	wNode2, err := d.net.Join(types.Reader(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.drv.NewReader(driver.ClientConfig{Quorum: quorum.Config{}}, wNode2); err == nil {
		t.Error("invalid quorum accepted")
	}
}
