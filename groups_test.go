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
)

// fourGroupSpecs is the canonical partitioned test deployment: four
// homogeneous groups inheriting the deployment-level quorum shape.
func fourGroupSpecs() []GroupSpec {
	return []GroupSpec{{Name: "g0"}, {Name: "g1"}, {Name: "g2"}, {Name: "g3"}}
}

// TestStoreGroupsCrossGroupAtomicity is the acceptance test of the
// partitioned store: 64 keys spread by the ring over 4 independent in-memory
// replica groups, driven concurrently, and every key's history independently
// satisfies the paper's single-writer atomicity conditions — checked in one
// sweep by atomicity.CheckKeyed. Values embed their key, so the checker
// (condition 1: a read returns ⊥ or a written value) also proves cross-GROUP
// isolation: a value leaking between groups would be flagged as
// never-written. The test also asserts the ring actually used every group —
// a routing bug that funnelled all keys into one group would pass the
// atomicity check while scaling nothing.
func TestStoreGroupsCrossGroupAtomicity(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{Servers: 7, Faulty: 1, Readers: 2, Protocol: ProtocolFast, Groups: fourGroupSpecs()}},
		{"abd", Config{Servers: 5, Faulty: 2, Readers: 2, Protocol: ProtocolABD, Groups: fourGroupSpecs()}},
	}
	const (
		keyCount       = 64
		writes         = 4
		readsPerReader = 5
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

			histories := make(map[string]history.History, keyCount)
			var histMu sync.Mutex
			groupKeys := make(map[string]int)
			var wg sync.WaitGroup
			for i := 0; i < keyCount; i++ {
				key := fmt.Sprintf("key-%03d", i)
				reg, err := store.Register(key)
				if err != nil {
					t.Fatal(err)
				}
				groupKeys[reg.Group()]++
				wg.Add(1)
				go func(key string, reg *Register) {
					defer wg.Done()
					h := driveRegister(ctx, t, reg, writes, readsPerReader, nil)
					histMu.Lock()
					histories[key] = h
					histMu.Unlock()
				}(key, reg)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			if len(groupKeys) != len(sc.cfg.Groups) {
				t.Errorf("keys landed on %d of %d groups: %v", len(groupKeys), len(sc.cfg.Groups), groupKeys)
			}
			report, err := atomicity.CheckKeyed(histories, atomicity.CheckSWMR, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK {
				for _, k := range report.FailedKeys() {
					t.Errorf("key %q violates atomicity:\n%s", k, report.Reports[k])
				}
			}
			if got := len(report.Reports); got != keyCount {
				t.Errorf("checker saw %d keys, want %d", got, keyCount)
			}

			stats := store.Stats()
			if want := int64(keyCount * writes); stats.Writes != want {
				t.Errorf("Stats.Writes = %d, want %d", stats.Writes, want)
			}
			if want := int64(keyCount * sc.cfg.Readers * readsPerReader); stats.Reads != want {
				t.Errorf("Stats.Reads = %d, want %d", stats.Reads, want)
			}
			if len(stats.Groups) != len(sc.cfg.Groups) {
				t.Fatalf("Stats.Groups has %d entries, want %d", len(stats.Groups), len(sc.cfg.Groups))
			}
			var keysSeen int
			var opsSeen, deliveredSeen int64
			for _, gs := range stats.Groups {
				if gs.Keys != groupKeys[gs.Group] {
					t.Errorf("group %q: Stats reports %d keys, placement counted %d", gs.Group, gs.Keys, groupKeys[gs.Group])
				}
				if wantOps := int64(gs.Keys) * int64(writes+sc.cfg.Readers*readsPerReader); gs.Ops != wantOps {
					t.Errorf("group %q: Ops = %d, want %d", gs.Group, gs.Ops, wantOps)
				}
				if gs.Keys > 0 && gs.DeliveredMsgs == 0 {
					t.Errorf("group %q: %d keys but no deliveries counted", gs.Group, gs.Keys)
				}
				keysSeen += gs.Keys
				opsSeen += gs.Ops
				deliveredSeen += gs.DeliveredMsgs
			}
			if keysSeen != keyCount {
				t.Errorf("per-group key counts sum to %d, want %d", keysSeen, keyCount)
			}
			if want := stats.Writes + stats.Reads; opsSeen != want {
				t.Errorf("per-group ops sum to %d, want %d", opsSeen, want)
			}
			if deliveredSeen != stats.DeliveredMsgs {
				t.Errorf("per-group deliveries sum to %d, want %d", deliveredSeen, stats.DeliveredMsgs)
			}
		})
	}
}

// TestStoreGroupsRoutingDeterministic pins the routing seam: GroupOf is a
// pure computation that agrees with where Register actually places keys,
// across two independently built stores of the same configuration (the
// in-process analogue of two processes sharing one topology).
func TestStoreGroupsRoutingDeterministic(t *testing.T) {
	cfg := Config{Servers: 3, Faulty: 1, Readers: 1, Protocol: ProtocolABD, Groups: fourGroupSpecs()}
	a, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("route-%d", i)
		if ga, gb := a.GroupOf(key), b.GroupOf(key); ga != gb {
			t.Fatalf("key %q: store A routes to %q, store B to %q", key, ga, gb)
		}
		reg, err := a.Register(key)
		if err != nil {
			t.Fatal(err)
		}
		if reg.Group() != a.GroupOf(key) {
			t.Fatalf("key %q: registered on %q but GroupOf says %q", key, reg.Group(), a.GroupOf(key))
		}
	}
	want := []string{"g0", "g1", "g2", "g3"}
	got := a.Groups()
	if len(got) != len(want) {
		t.Fatalf("Groups() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Groups() = %v, want %v", got, want)
		}
	}
}

// TestStoreGroupsIdleWithoutKeys checks that a group serves no operations
// until the ring routes a key to it: registering keys owned by a strict
// subset of the groups must leave the others idle (visible through their
// zero key and operation counts in Stats).
func TestStoreGroupsIdleWithoutKeys(t *testing.T) {
	store, err := NewStore(Config{Servers: 3, Faulty: 1, Readers: 1, Protocol: ProtocolABD, Groups: fourGroupSpecs()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := testCtx(t)

	// Find a key for group g0 by pure routing, then touch only that key.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("lazy-%d", i)
		if store.GroupOf(key) == "g0" {
			break
		}
	}
	reg, err := store.Register(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
	stats := store.Stats()
	for _, gs := range stats.Groups {
		switch gs.Group {
		case "g0":
			if gs.Keys != 1 || gs.Writes != 1 {
				t.Errorf("g0: keys=%d writes=%d, want 1/1", gs.Keys, gs.Writes)
			}
		default:
			if gs.Keys != 0 || gs.Ops != 0 {
				t.Errorf("untouched group %q shows keys=%d ops=%d", gs.Group, gs.Keys, gs.Ops)
			}
		}
	}
	// Only g0 carried a write, so the deployment-wide delivery count is
	// exactly g0's — three servers' worth of one write round, not four
	// groups' worth of anything.
	if stats.DeliveredMsgs == 0 {
		t.Error("no deliveries counted for the instantiated group")
	}
}

// TestStoreGroupsHeterogeneousQuorums checks per-group quorum overrides: a
// deployment can mix group shapes, each validated against the protocol's
// bound, and operations on each group use its own quorum math.
func TestStoreGroupsHeterogeneousQuorums(t *testing.T) {
	store, err := NewStore(Config{
		Servers: 4, Faulty: 1, Readers: 1, Protocol: ProtocolABD,
		Groups: []GroupSpec{
			{Name: "small"},
			{Name: "wide", Servers: 7, Faulty: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := testCtx(t)

	touched := map[string]bool{}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("hetero-%d", i)
		reg, err := store.Register(key)
		if err != nil {
			t.Fatal(err)
		}
		touched[reg.Group()] = true
		if err := reg.Writer().Write(ctx, []byte(key)); err != nil {
			t.Fatalf("key %q (group %q): %v", key, reg.Group(), err)
		}
		rd, err := reg.Reader(1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rd.Read(ctx)
		if err != nil {
			t.Fatalf("key %q (group %q): %v", key, reg.Group(), err)
		}
		if string(res.Value) != key {
			t.Fatalf("key %q: read %q", key, res.Value)
		}
	}
	if !touched["small"] || !touched["wide"] {
		t.Errorf("16 keys touched only %v", touched)
	}
}

// TestStoreGroupsConfigRejected covers the configuration guards: unnamed and
// duplicate groups, and a group whose (possibly inherited) shape violates
// the protocol bound, all fail at NewStore — not at the first unlucky
// Register.
func TestStoreGroupsConfigRejected(t *testing.T) {
	base := Config{Servers: 7, Faulty: 1, Readers: 1, Protocol: ProtocolFast}

	noName := base
	noName.Groups = []GroupSpec{{Name: "g0"}, {}}
	if _, err := NewStore(noName); err == nil {
		t.Error("NewStore accepted an unnamed group")
	}

	dup := base
	dup.Groups = []GroupSpec{{Name: "g"}, {Name: "g"}}
	if _, err := NewStore(dup); err == nil {
		t.Error("NewStore accepted duplicate group names")
	}

	// The fast protocol needs R < S/t - 2: a 4-server group with t=1 cannot
	// serve R=1 (bound requires S/t > R+2 = 3... S=4 gives R < 2, fine) — use
	// a group small enough to violate it outright.
	bad := base
	bad.Groups = []GroupSpec{{Name: "ok"}, {Name: "tiny", Servers: 3}}
	if _, err := NewStore(bad); !errors.Is(err, ErrTooManyReaders) {
		t.Errorf("NewStore on a bound-violating group: got %v, want ErrTooManyReaders", err)
	}
}

// TestStoreGroupsCrashPerGroup checks fault injection composes with
// partitioning: crashing server 1 crashes it in every instantiated group, and
// each group tolerates its own t failures independently.
func TestStoreGroupsCrashPerGroup(t *testing.T) {
	store, err := NewStore(Config{Servers: 5, Faulty: 2, Readers: 1, Protocol: ProtocolABD,
		Groups: []GroupSpec{{Name: "g0"}, {Name: "g1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := testCtx(t)

	// Touch keys on both groups so both are instantiated before the crash.
	keys := make([]*Register, 0, 8)
	seen := map[string]bool{}
	for i := 0; len(seen) < 2 || len(keys) < 4; i++ {
		reg, err := store.Register(fmt.Sprintf("crash-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, reg)
		seen[reg.Group()] = true
	}
	if err := store.CrashServer(1); err != nil {
		t.Fatal(err)
	}
	if err := store.CrashServer(6); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("CrashServer(6) on 5-server groups: got %v, want ErrUnknownServer", err)
	}
	for _, reg := range keys {
		if err := reg.Writer().Write(ctx, []byte("ok")); err != nil {
			t.Fatalf("key %q (group %q): write after crash: %v", reg.Key(), reg.Group(), err)
		}
		rd, _ := reg.Reader(1)
		if res, err := rd.Read(ctx); err != nil || string(res.Value) != "ok" {
			t.Fatalf("key %q (group %q): read after crash: %v %q", reg.Key(), reg.Group(), err, res.Value)
		}
	}
}

// TestStoreSingleGroupStatsBreakdown pins backward compatibility: an
// unpartitioned store reports exactly one "default" group whose breakdown
// matches the aggregate counters.
func TestStoreSingleGroupStatsBreakdown(t *testing.T) {
	store, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := testCtx(t)

	reg, err := store.Register("k")
	if err != nil {
		t.Fatal(err)
	}
	if reg.Group() != "default" || store.GroupOf("k") != "default" {
		t.Errorf("single-group placement: Register.Group=%q GroupOf=%q", reg.Group(), store.GroupOf("k"))
	}
	if err := reg.Writer().Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
	stats := store.Stats()
	if len(stats.Groups) != 1 {
		t.Fatalf("Stats.Groups has %d entries, want 1", len(stats.Groups))
	}
	gs := stats.Groups[0]
	if gs.Group != "default" || gs.Keys != 1 || gs.Writes != stats.Writes || gs.Ops != stats.Writes+stats.Reads {
		t.Errorf("default group breakdown %+v does not match aggregate writes=%d reads=%d",
			gs, stats.Writes, stats.Reads)
	}
}

// TestStoreGroupShapeInheritsPerField repeats internal/topology's four rows
// against the Store's call of the shared resolver: whatever a GroupSpec
// leaves zero inherits the deployment-level Config field by field, exactly as
// a topology file's group does in cmd/regserver and cmd/regclient. Every
// resolved shape here is beyond the fast protocol's bound at R=2, so NewStore
// refuses it and the refusal spells the shape out.
func TestStoreGroupShapeInheritsPerField(t *testing.T) {
	for _, tc := range []struct {
		name  string
		group GroupSpec
		want  string
	}{
		{"none", GroupSpec{Name: "g"}, "S=4 t=1"},
		{"S only", GroupSpec{Name: "g", Servers: 3}, "S=3 t=1"},
		{"t only", GroupSpec{Name: "g", Faulty: 2}, "S=4 t=2"},
		{"all set", GroupSpec{Name: "g", Servers: 5, Faulty: 2}, "S=5 t=2"},
	} {
		_, err := NewStore(Config{Servers: 4, Faulty: 1, Readers: 2, Groups: []GroupSpec{tc.group}})
		if !errors.Is(err, ErrTooManyReaders) || !strings.Contains(err.Error(), `group "g"`) || !strings.Contains(err.Error(), tc.want+" ") {
			t.Errorf("%s: NewStore = %v, want ErrTooManyReaders for group \"g\" at %s", tc.name, err, tc.want)
		}
	}
}
