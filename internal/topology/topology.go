// Package topology partitions the register keyspace across independent
// replica groups.
//
// A deployment that keeps every key on every server caps its aggregate
// capacity at whatever one replica set can sustain. The paper's guarantee is
// per register, so correctness composes across DISJOINT server groups for
// free: a key served by group A never exchanges a message with group B, and
// each group is exactly the single-group deployment the proofs are about.
// What the composition needs is a placement function every process computes
// identically, with no directory service and no extra network hop — routing
// must stay a pure client-side computation so the fast protocols keep their
// optimal round-trip count.
//
// Ring is that function: a consistent-hash ring of virtual nodes built from
// the group names alone, each name and key hashed with 64-bit FNV-1a and a
// finalizer (fnv1a, mix). Any two processes that agree on
// the ordered group list and the virtual-node count place every possible key
// identically, which is why Topology — the serializable deployment
// description shipped to every server and client — is the ring's only input.
//
// Topology also carries what the ring does not need but a deployment does:
// each group's quorum parameters (S, t, b) and its member address book, so
// one JSON document describes a whole multi-group fleet for cmd/regserver
// and cmd/regclient.
package topology

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"fastread/internal/quorum"
)

// DefaultVirtualNodes is the per-group virtual-node count used when a ring
// is built with a non-positive one. 128 points per group keeps placement
// balanced within a few percent for realistic group counts while the whole
// ring stays small enough to scan-build in microseconds.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring mapping register keys onto group indexes.
// It is immutable after construction and safe for concurrent use; a Lookup
// is one hash plus one binary search and allocates nothing.
type Ring struct {
	points []ringPoint
}

// ringPoint is one virtual node: the hash of "<group-name>#<replica>" and
// the index of the group that owns it.
type ringPoint struct {
	hash  uint64
	group int32
}

// NewRing builds the ring for the ordered group list. Group names must be
// non-empty and unique — the ring hashes names, so two groups sharing a name
// would own each other's keys. virtualNodes <= 0 selects
// DefaultVirtualNodes.
//
// Determinism contract: the ring is a pure function of (names, virtualNodes).
// Every process of a deployment must build it from the same ordered list —
// which is what sharing one serialized Topology guarantees — and then every
// process maps every key to the same group index with no communication.
func NewRing(names []string, virtualNodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("topology: a ring needs at least one group")
	}
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	seen := make(map[string]struct{}, len(names))
	r := &Ring{
		points: make([]ringPoint, 0, len(names)*virtualNodes),
	}
	var buf []byte
	for gi, name := range names {
		if name == "" {
			return nil, fmt.Errorf("topology: group %d has an empty name", gi)
		}
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("topology: duplicate group name %q", name)
		}
		seen[name] = struct{}{}
		for v := 0; v < virtualNodes; v++ {
			buf = append(buf[:0], name...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			r.points = append(r.points, ringPoint{hash: mix(fnv1a(buf)), group: int32(gi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		// Ties (astronomically rare for FNV-1a over distinct labels) break by
		// group index so the sorted order never depends on sort internals.
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.group < b.group
	})
	return r, nil
}

// Lookup returns the index (into the ordered group list the ring was built
// from) of the group owning key.
func (r *Ring) Lookup(key string) int { return r.locate(mix(fnv1a(key))) }

// LookupBytes is Lookup over a byte-slice key view, for callers routing on
// wire-format key views without materialising a string.
func (r *Ring) LookupBytes(key []byte) int { return r.locate(mix(fnv1a(key))) }

// fnv1a is the 64-bit FNV-1a hash of a key or a virtual-node label, inlined
// to keep Lookup allocation-free (hash/fnv forces the key through an
// io.Writer). One body serves both string keys and wire-format key views.
func fnv1a[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// mix finalizes an FNV-1a hash for ring placement (murmur3's fmix64).
// FNV-1a distributes well across hash-table buckets (its low bits avalanche)
// but ring position is the FULL 64-bit value, and over near-identical labels
// like "g0#17"/"g0#18" the high bits barely move — unmixed, virtual nodes
// clump and group shares were off fair by 50%+. The finalizer is applied to
// both the points and the keys, so placement remains a pure deterministic
// function of the names and the key.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// locate finds the first virtual node at or clockwise after h, wrapping to
// the ring's start. Hand-rolled binary search: the hot path must not
// allocate, and a sort.Search closure capturing h is one escape-analysis
// regression away from doing so.
func (r *Ring) locate(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return int(r.points[lo].group)
}

// Topology is the serializable description of a partitioned deployment: the
// ordered replica groups, each with its own quorum parameters and member
// address book. One JSON document (see Parse/Encode/Load) is shared by every
// server and client process, making the ring — and therefore key placement —
// identical everywhere with no coordination.
type Topology struct {
	// VirtualNodes is the per-group virtual-node count for the ring; zero
	// means DefaultVirtualNodes. All processes must agree on it, which is why
	// it travels inside the document.
	VirtualNodes int `json:"virtual_nodes,omitempty"`
	// Epoch numbers the deployment's configuration generation. Durable
	// servers stamp it into every write-ahead segment and snapshot header and
	// REFUSE to recover state written under a different epoch, so a
	// reconfiguration (which must bump the epoch when it changes placement)
	// can never silently resurrect registers a server persisted under the
	// old keyspace layout. Zero is a valid epoch — the common case for a
	// deployment that has never been reconfigured.
	Epoch uint64 `json:"epoch,omitempty"`
	// Groups is the ORDERED group list. Ring lookups return indexes into it,
	// so reordering the list re-routes the keyspace: treat the order as part
	// of the deployment's identity.
	Groups []Group `json:"groups"`
}

// Group is one replica group: an independent S-server deployment owning the
// slice of the keyspace the ring assigns to its name.
type Group struct {
	// Name identifies the group on the ring. Renaming a group moves its keys.
	Name string `json:"name"`
	// Servers (S), Faulty (t) and Malicious (b) are the group's quorum
	// parameters; a zero inherits the deployment-level value (see Quorum).
	// Groups may differ — a hot slice of the keyspace can run wider than a
	// cold one.
	Servers   int `json:"servers"`
	Faulty    int `json:"faulty"`
	Malicious int `json:"malicious,omitempty"`
	// Members maps textual process identities ("s1".."sS", "w", "r1"..) to
	// host:port addresses — the group's address book for socket transports.
	// Optional for in-memory deployments.
	Members map[string]string `json:"members,omitempty"`
}

// Quorum resolves the group's quorum shape against the deployment-level one
// and vets it — the one spelling of "a group's zero parameters inherit the
// deployment's" that the in-process Store, regserver and regclient share, so
// a group means the same deployment in process and across processes. Each of
// Servers, Faulty and Malicious that is zero inherits base's, field by field
// (so {servers: 7} runs the deployment's t on seven servers); Readers is
// always the deployment's. The result must pass quorum.Config.Validate and
// the protocol's own check (the driver's Validate); a failure names the
// group. The zero Group is the unpartitioned deployment: base itself, vetted
// the same way, the error left bare.
func (g Group) Quorum(base quorum.Config, protocol func(quorum.Config) error) (quorum.Config, error) {
	q := base
	if g.Servers != 0 {
		q.Servers = g.Servers
	}
	if g.Faulty != 0 {
		q.Faulty = g.Faulty
	}
	if g.Malicious != 0 {
		q.Malicious = g.Malicious
	}
	err := q.Validate()
	if err == nil {
		err = protocol(q)
	}
	if err != nil && g.Name != "" {
		err = fmt.Errorf("group %q: %w", g.Name, err)
	}
	return q, err
}

// Validate checks the document's internal consistency: at least one group,
// unique non-empty names, and plausible per-group quorum shapes. Protocol
// bounds (the fast protocols' reader bound, t < S/2) are checked by the
// driver at deployment time, not here — the document does not know which
// protocol will run on it.
func (t Topology) Validate() error {
	if len(t.Groups) == 0 {
		return fmt.Errorf("topology: no groups")
	}
	seen := make(map[string]struct{}, len(t.Groups))
	for i, g := range t.Groups {
		if g.Name == "" {
			return fmt.Errorf("topology: group %d has an empty name", i)
		}
		if _, dup := seen[g.Name]; dup {
			return fmt.Errorf("topology: duplicate group name %q", g.Name)
		}
		seen[g.Name] = struct{}{}
		if g.Servers < 0 || g.Faulty < 0 || g.Malicious < 0 {
			return fmt.Errorf("topology: group %q has negative quorum parameters", g.Name)
		}
	}
	return nil
}

// GroupNames returns the ordered group names — the ring's input.
func (t Topology) GroupNames() []string {
	names := make([]string, len(t.Groups))
	for i, g := range t.Groups {
		names[i] = g.Name
	}
	return names
}

// GroupIndex resolves a group name to its index in the ordered list. Unknown
// names are an error, not a -1: a process configured for a group the
// topology does not contain is misconfigured and must not start.
func (t Topology) GroupIndex(name string) (int, error) {
	for i, g := range t.Groups {
		if g.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("topology: unknown group %q (have %v)", name, t.GroupNames())
}

// Ring builds the document's consistent-hash ring.
func (t Topology) Ring() (*Ring, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return NewRing(t.GroupNames(), t.VirtualNodes)
}

// Parse decodes and validates a JSON topology document.
func Parse(data []byte) (Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return Topology{}, fmt.Errorf("topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// Encode serializes the document as indented JSON, the on-disk form the CLI
// binaries consume.
func (t Topology) Encode() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(t, "", "  ")
}

// Load reads and parses a topology file.
func Load(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("topology: %w", err)
	}
	return Parse(data)
}
