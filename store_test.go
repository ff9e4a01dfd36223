package fastread

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fastread/internal/atomicity"
	"fastread/internal/history"
	"fastread/internal/types"
)

// driveRegister runs a small concurrent workload against one register: the
// register's writer writes distinct values while every reader reads, and all
// operations are recorded into the returned history. afterOp, when non-nil,
// runs on the client's goroutine after each completed operation (the place to
// inject a fault mid-run).
func driveRegister(ctx context.Context, t *testing.T, reg *Register, writes, readsPerReader int, afterOp func()) history.History {
	t.Helper()
	rec := history.NewRecorder()
	var wg sync.WaitGroup
	if afterOp == nil {
		afterOp = func() {}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 1; j <= writes; j++ {
			v := types.Value(fmt.Sprintf("%s#v%d", reg.Key(), j))
			id := rec.Invoke(types.Writer(), history.OpWrite, v)
			if err := reg.Writer().Write(ctx, v); err != nil {
				rec.Fail(id)
				t.Errorf("key %q write %d: %v", reg.Key(), j, err)
				return
			}
			rec.Return(id, v, types.Timestamp(j))
			afterOp()
		}
	}()
	for ri, rd := range reg.Readers() {
		wg.Add(1)
		go func(index int, reader Reader) {
			defer wg.Done()
			for j := 0; j < readsPerReader; j++ {
				id := rec.Invoke(types.Reader(index), history.OpRead, nil)
				res, err := reader.Read(ctx)
				if err != nil {
					rec.Fail(id)
					t.Errorf("key %q reader %d read %d: %v", reg.Key(), index, j, err)
					return
				}
				rec.Return(id, types.Value(res.Value), types.Timestamp(res.Version))
				afterOp()
			}
		}(ri+1, rd)
	}
	wg.Wait()
	return rec.History()
}

// TestStoreManyKeysAtomicPerKey is the acceptance test of the multi-register
// refactor: a single deployment serves well over 100 distinct keys
// concurrently, and every key's history independently satisfies the paper's
// single-writer atomicity conditions. Values embed their key, so the checker
// (condition 1: a read returns ⊥ or a written value) also proves cross-key
// isolation — a value leaking from one register into another would be
// flagged as never-written.
func TestStoreManyKeysAtomicPerKey(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{Servers: 7, Faulty: 1, Readers: 2, Protocol: ProtocolFast}},
		{"abd", Config{Servers: 5, Faulty: 2, Readers: 2, Protocol: ProtocolABD}},
	}
	const (
		keyCount       = 110
		writes         = 5
		readsPerReader = 6
	)
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			store, err := NewStore(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()

			histories := make([]history.History, keyCount)
			var wg sync.WaitGroup
			for i := 0; i < keyCount; i++ {
				reg, err := store.Register(fmt.Sprintf("key-%03d", i))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, reg *Register) {
					defer wg.Done()
					histories[i] = driveRegister(ctx, t, reg, writes, readsPerReader, nil)
				}(i, reg)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			if got := len(store.Keys()); got != keyCount {
				t.Errorf("store serves %d keys, want %d", got, keyCount)
			}
			for i, h := range histories {
				report, err := atomicity.CheckSWMR(h)
				if err != nil {
					t.Fatalf("key %d: %v", i, err)
				}
				if !report.OK {
					t.Errorf("key %d violates atomicity:\n%s", i, report)
				}
				if report.Writes != writes || report.Reads != sc.cfg.Readers*readsPerReader {
					t.Errorf("key %d: checker saw %d writes, %d reads", i, report.Writes, report.Reads)
				}
			}

			stats := store.Stats()
			if want := int64(keyCount * writes); stats.Writes != want {
				t.Errorf("Stats.Writes = %d, want %d", stats.Writes, want)
			}
			if want := int64(keyCount * sc.cfg.Readers * readsPerReader); stats.Reads != want {
				t.Errorf("Stats.Reads = %d, want %d", stats.Reads, want)
			}
		})
	}
}

// TestStorePerKeyReadYourWrite checks the basic contract on a handful of
// registers for every protocol: a read that follows a completed write on the
// same register returns that write (or a newer one), and never another
// register's value.
func TestStorePerKeyReadYourWrite(t *testing.T) {
	protocols := []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{Servers: 7, Faulty: 1, Readers: 1, Protocol: ProtocolFast}},
		{"fast-byz", Config{Servers: 11, Faulty: 1, Malicious: 1, Readers: 1, Protocol: ProtocolFastByzantine}},
		{"abd", Config{Servers: 5, Faulty: 2, Readers: 1, Protocol: ProtocolABD}},
		{"maxmin", Config{Servers: 5, Faulty: 2, Readers: 1, Protocol: ProtocolMaxMin}},
		{"regular", Config{Servers: 5, Faulty: 2, Readers: 1, Protocol: ProtocolRegular}},
	}
	for _, sc := range protocols {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			store, err := NewStore(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ctx := testCtx(t)

			keys := []string{"", "alpha", "beta", "nested/path/key", strings.Repeat("k", 64)}
			for round := 1; round <= 3; round++ {
				for _, key := range keys {
					reg, err := store.Register(key)
					if err != nil {
						t.Fatal(err)
					}
					want := fmt.Sprintf("%s=%d", key, round)
					if err := reg.Writer().Write(ctx, []byte(want)); err != nil {
						t.Fatalf("key %q round %d: write: %v", key, round, err)
					}
					reader, err := reg.Reader(1)
					if err != nil {
						t.Fatal(err)
					}
					res, err := reader.Read(ctx)
					if err != nil {
						t.Fatalf("key %q round %d: read: %v", key, round, err)
					}
					if string(res.Value) != want {
						t.Fatalf("key %q round %d: read %q, want %q", key, round, res.Value, want)
					}
				}
			}
		})
	}
}

// TestStoreRegisterIdempotent verifies that Register hands out the same
// stateful handles for the same key: the writer's timestamp sequence must
// not fork.
func TestStoreRegisterIdempotent(t *testing.T) {
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	a, err := store.Register("k")
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Register("k")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Register returned distinct handles for one key")
	}

	// Concurrent Register calls race for creation but must all converge on
	// one handle per key.
	const goroutines = 8
	results := make([]*Register, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reg, err := store.Register("contended")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = reg
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent Register calls produced distinct handles")
		}
	}
}

// TestRegisterReadersIsShared: Readers hands out the register's one slice, so
// a loop calling reg.Readers()[0].Read allocates nothing for it, and a
// restarted reader keeps its handle.
func TestRegisterReadersIsShared(t *testing.T) {
	store, err := NewStore(Config{Servers: 5, Faulty: 1, Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg, err := store.Register("k")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = reg.Readers()[1] }); n != 0 {
		t.Errorf("Readers allocates %.1f times per call, want 0", n)
	}
	before := reg.Readers()[1]
	if err := store.RestartReader("k", 2); err != nil {
		t.Fatal(err)
	}
	if reg.Readers()[1] != before {
		t.Error("RestartReader replaced reader 2's handle in Readers")
	}
	if r, err := reg.Reader(2); err != nil || r != before {
		t.Errorf("Reader(2) = %v, %v; want the handle Readers returns", r, err)
	}
	if _, err := before.Read(context.Background()); err != nil {
		t.Errorf("a read through the handle after its restart: %v", err)
	}
}

func TestStoreKeyLimitsAndClose(t *testing.T) {
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := store.Register(strings.Repeat("x", MaxKeyLen)); err != nil {
		t.Errorf("key at the limit rejected: %v", err)
	}
	if _, err := store.Register(strings.Repeat("x", MaxKeyLen+1)); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("oversized key: got %v, want ErrKeyTooLong", err)
	}

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Register("after-close"); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Register after Close: got %v, want ErrStoreClosed", err)
	}
	// Close is idempotent.
	_ = store.Close()
}

// TestClusterIsDefaultRegister pins the register single-register code uses:
// the empty key is a register like any other, registers created beside it
// share its servers without disturbing it, and registering it again hands
// back the same handles.
func TestClusterIsDefaultRegister(t *testing.T) {
	store, reg := newRegister(t, Config{Servers: 4, Faulty: 1, Readers: 1})
	ctx := testCtx(t)

	if err := reg.Writer().Write(ctx, []byte("default")); err != nil {
		t.Fatal(err)
	}
	other, err := store.Register("other")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Writer().Write(ctx, []byte("elsewhere")); err != nil {
		t.Fatal(err)
	}

	reader, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reader.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "default" {
		t.Fatalf("default register read %q after writing to another register", res.Value)
	}

	def, err := store.Register("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Writer() != reg.Writer() {
		t.Error("registering the empty key again handed out another writer")
	}
}

// TestStoreCrashToleranceAcrossKeys crashes one server and checks that every
// register keeps operating: the crash is shared infrastructure, not per-key.
func TestStoreCrashToleranceAcrossKeys(t *testing.T) {
	store, err := NewStore(Config{Servers: 7, Faulty: 1, Readers: 1, Protocol: ProtocolFast})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := testCtx(t)

	if err := store.CrashServer(7); err != nil {
		t.Fatal(err)
	}
	if err := store.CrashServer(8); err == nil {
		t.Error("CrashServer accepted an out-of-range index")
	}
	for i := 0; i < 20; i++ {
		reg, err := store.Register(fmt.Sprintf("survivor-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Writer().Write(ctx, []byte("ok")); err != nil {
			t.Fatalf("key %d: write after crash: %v", i, err)
		}
		reader, _ := reg.Reader(1)
		res, err := reader.Read(ctx)
		if err != nil {
			t.Fatalf("key %d: read after crash: %v", i, err)
		}
		if string(res.Value) != "ok" {
			t.Fatalf("key %d: read %q", i, res.Value)
		}
	}
}

// TestStoreStartsEveryGroup pins that every replica group of a partitioned
// store is running when NewStore returns: a crash injected before any key is
// registered reaches server 1 of BOTH groups, so a write in each group loses
// its message to that server.
func TestStoreStartsEveryGroup(t *testing.T) {
	store, err := NewStore(Config{Servers: 3, Faulty: 1, Readers: 1, Protocol: ProtocolABD,
		Groups: []GroupSpec{{Name: "g0"}, {Name: "g1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := testCtx(t)

	if err := store.CrashServer(1); err != nil {
		t.Fatal(err)
	}
	for _, group := range store.Groups() {
		var key string
		for i := 0; store.GroupOf(key) != group; i++ {
			key = fmt.Sprintf("start-%d", i)
		}
		reg, err := store.Register(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
			t.Fatalf("group %q: write after crash: %v", group, err)
		}
	}
	for _, gs := range store.Stats().Groups {
		if gs.InboundDrops < 1 {
			t.Errorf("group %q: InboundDrops = %d, want its write to reach the crashed server 1", gs.Group, gs.InboundDrops)
		}
	}
}

// TestStoreByzantineStandInIsPerKey pins that the malicious stand-in's honest
// half keeps one state per register, as an honest server does. S=8, t=1, b=1,
// R=2 with s1 losing its memory towards r1 and one honest server crashed on
// top: S−t = 7 servers are left, so every quorum needs s1's acknowledgement,
// and a stand-in that answers one key's readers with another key's timestamp,
// value and signature (which fail VerifyKeyed) stalls them to their deadline.
func TestStoreByzantineStandInIsPerKey(t *testing.T) {
	store, err := NewStore(Config{
		Servers: 8, Faulty: 1, Malicious: 1, Readers: 2,
		Protocol:  ProtocolFastByzantine,
		Byzantine: map[int]ByzantineBehavior{1: ByzantineMemoryLoss},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.CrashServer(2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	for _, key := range []string{"k1", "k2"} {
		reg, err := store.Register(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Writer().Write(ctx, []byte(key+"#1")); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
	}
	for _, key := range []string{"k1", "k2"} {
		reg, _ := store.Register(key)
		reader, err := reg.Reader(2) // r1 is the stand-in's victim
		if err != nil {
			t.Fatal(err)
		}
		res, err := reader.Read(ctx)
		if err != nil {
			t.Fatalf("read %s by r2: %v", key, err)
		}
		if want := key + "#1"; string(res.Value) != want {
			t.Errorf("read %s by r2 = %q (version %d), want %q", key, res.Value, res.Version, want)
		}
	}
}
