package protoutil_test

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fastread/internal/driver"
	"fastread/internal/durable"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// replica is a protocol server driven one request at a time (the shell's
// test-only views, promoted through each protocol's server type).
type replica interface {
	driver.Server
	Deliver(m transport.Message, out transport.Sender) error
	Snapshot() error
	Registers() []durable.Record
}

// discard is the run's sender: acks and gossip go nowhere.
type discard struct{}

func (discard) Send(types.ProcessID, string, []byte) error { return nil }

const (
	diffKeys     = 3
	diffRequests = 300
	// diffSnapshotEvery requests, the live server snapshots, so recovery
	// restores KindState records as well as replaying deltas.
	diffSnapshotEvery = 70
)

// TestShellDifferentialRecovery checks that recovery replays exactly what the
// live handler applied. Each driver's durable server is fed a seeded random
// request sequence; after every request's commit a copy of its data
// directory is recovered into a fresh server, and every register's durable
// state must equal the live one's: value, signature, seen set in order,
// counters and LSN. Requests come either in a pooled arena or in a scratch
// buffer that is poisoned as soon as the handler returns, so a register that
// keeps a request's bytes instead of copying them diverges from its
// recovered copy.
func TestShellDifferentialRecovery(t *testing.T) {
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.driver, func(t *testing.T) {
			differential(t, driverBuilder(t, sh.driver), sh.driver, sh.quorum, 1)
		})
	}
}

func differential(t *testing.T, build builder, name string, q quorum.Config, seed int64) {
	opts := durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncAlways, SimulateCrash: true, SnapshotEvery: -1}
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	srv, err := build(driver.ServerConfig{ID: types.Server(1), Quorum: q, Durable: &opts}, join(t, net, types.Server(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	live := srv.(replica)

	gen := newRequests(name, q, seed)
	var scratch []byte
	copies := t.TempDir()
	for i := 1; i <= diffRequests; i++ {
		from, req := gen.next()
		m := transport.Message{From: from, To: types.Server(1), Kind: req.Kind()}
		if gen.rng.Intn(2) == 0 {
			payload, a, err := wire.EncodeArena(req)
			if err != nil {
				t.Fatal(err)
			}
			m.Payload, m.Arena = payload, a
			err = live.Deliver(m, discard{})
			a.Release()
			if err != nil {
				t.Fatalf("request %d: commit: %v", i, err)
			}
		} else {
			if scratch, err = wire.AppendEncode(scratch[:0], req); err != nil {
				t.Fatal(err)
			}
			m.Payload = scratch
			err = live.Deliver(m, discard{})
			for j := range scratch {
				scratch[j] = 0xEE
			}
			if err != nil {
				t.Fatalf("request %d: commit: %v", i, err)
			}
		}
		if i%diffSnapshotEvery == 0 {
			if err := live.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}

		want := describeAll(live.Registers())
		got := describeAll(recoverCopy(t, build, q, opts.Dir, filepath.Join(copies, fmt.Sprint(i))))
		if !maps.Equal(got, want) {
			t.Fatalf("after request %d (%s from %v, key %s, ts %d, rc %d) recovery holds\n  %v\nwhere the live server holds\n  %v",
				i, req.Op, from, req.Key, req.TS, req.RCounter, got, want)
		}
	}
}

// recoverCopy copies the data directory src to dst, recovers a fresh server
// from the copy and returns its registers.
func recoverCopy(t *testing.T, build builder, q quorum.Config, src, dst string) []durable.Record {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dst)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	net := transport.NewInMemNetwork()
	defer net.Close()
	opts := durable.Options{Dir: dst, Fsync: durable.FsyncAlways, SimulateCrash: true, SnapshotEvery: -1}
	srv, err := build(driver.ServerConfig{ID: types.Server(1), Quorum: q, Durable: &opts}, join(t, net, types.Server(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	return srv.(replica).Registers()
}

// describeAll renders each register's durable state by key, leaving out the
// registers still in their initial state, which recovery does not instantiate.
func describeAll(recs []durable.Record) map[string]string {
	initial := describe(durable.Record{})
	out := make(map[string]string, len(recs))
	for _, r := range recs {
		if d := describe(r); d != initial {
			out[r.Key] = d
		}
	}
	return out
}

// describe renders one register's durable state. Counters are sorted (the
// state keeps them in a map); the seen set keeps its order.
func describe(r durable.Record) string {
	counters := append([]durable.CounterEntry(nil), r.Counters...)
	sort.Slice(counters, func(i, j int) bool { return counters[i].PID < counters[j].PID })
	return fmt.Sprintf("lsn=%d ts=%d rank=%d cur=%s prev=%s sig=%x seen=%v counters=%v",
		r.LSN, r.TS, r.Rank, valueString(r.Cur), valueString(r.Prev), r.Sig, r.Seen, counters)
}

func valueString(v []byte) string {
	if v == nil {
		return "⊥"
	}
	return fmt.Sprintf("%q", v)
}

// requests generates a seeded random request sequence in a protocol's
// vocabulary: writes of the writer's signed values in any order, reads that
// carry a value back (the fast protocols' write-back) and, per protocol,
// write-backs, queries and peer gossip. Operation counters mostly grow per
// client and sometimes go back, so the fast servers' stale-request guard
// both passes and refuses.
type requests struct {
	name    string
	readers int
	rng     *rand.Rand
	rc      map[types.ProcessID]int64
	sigs    map[string][]byte
}

func newRequests(name string, q quorum.Config, seed int64) *requests {
	g := &requests{name: name, readers: q.Readers, rng: rand.New(rand.NewSource(seed)),
		rc: map[types.ProcessID]int64{types.Writer(): 10}, sigs: make(map[string][]byte)}
	for i := 1; i <= q.Readers; i++ {
		// Counters start high enough that going back stays non-negative.
		g.rc[types.Reader(i)] = 10
	}
	return g
}

// value is the writer's ts-th write of key, with its signature.
func (g *requests) value(key string, ts types.Timestamp) (cur, prev types.Value, signature []byte) {
	if ts == 0 {
		return nil, nil, nil
	}
	cur = types.Value(fmt.Sprintf("%s@%d", key, ts))
	if ts > 1 {
		prev = types.Value(fmt.Sprintf("%s@%d", key, ts-1))
	}
	id := fmt.Sprintf("%s/%d", key, ts)
	if g.sigs[id] == nil {
		g.sigs[id] = writerKeys.Signer.MustSignKeyed(key, ts, cur, prev)
	}
	return cur, prev, g.sigs[id]
}

// counter is from's next operation counter: one or two above its last, or,
// one time in eight, below it.
func (g *requests) counter(from types.ProcessID) int64 {
	if g.rng.Intn(8) == 0 {
		return g.rc[from] - 1 - int64(g.rng.Intn(3))
	}
	g.rc[from] += 1 + int64(g.rng.Intn(2))
	return g.rc[from]
}

func (g *requests) next() (types.ProcessID, *wire.Message) {
	key := keyName(g.rng.Intn(diffKeys))
	ts := types.Timestamp(g.rng.Intn(9))
	cur, prev, signature := g.value(key, ts)
	req := &wire.Message{Key: key, TS: ts, Cur: cur, Prev: prev, WriterSig: signature}
	reader := types.Reader(1 + g.rng.Intn(g.readers))
	from := reader
	switch op := g.rng.Intn(4); {
	case op == 0 || ts == 0 && op == 1:
		req.Op = wire.OpRead
	case op == 1:
		req.Op, from = wire.OpWrite, types.Writer()
	case g.name == "abd" || g.name == "regular":
		req.Op = []wire.Op{wire.OpWriteBack, wire.OpQuery}[op-2]
		req.WriterRank = int32(g.rng.Intn(3))
	case g.name == "maxmin":
		// A peer's gossip for one of the reader's recent reads.
		req.Op, from = wire.OpGossip, types.Server(2+g.rng.Intn(2))
		req.Phase = int32(reader.Index)
		req.RCounter = g.rc[reader] - int64(g.rng.Intn(2))
		return from, req
	default:
		req.Op = wire.OpRead
		if g.rng.Intn(4) == 0 {
			// A forged signature: the Byzantine variant refuses it.
			req.WriterSig = append([]byte{0xFF}, signature...)
		}
	}
	req.RCounter = g.counter(from)
	return from, req
}
