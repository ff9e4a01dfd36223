// Package types defines the process identities, timestamps and register
// values shared by every protocol implementation in this repository.
//
// The model follows Section 2 of "How Fast can a Distributed Atomic Read
// be?" (Dutta, Guerraoui, Levy, Vukolić; PODC 2004): the system consists of
// three disjoint sets of processes — a single writer w, R readers r1..rR and
// S servers s1..sS — communicating over reliable asynchronous point-to-point
// channels.
package types

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Role identifies which of the three disjoint process sets a process belongs
// to.
type Role int

const (
	// RoleWriter is the single writer process w.
	RoleWriter Role = iota + 1
	// RoleReader is one of the reader processes r1..rR.
	RoleReader
	// RoleServer is one of the server processes s1..sS implementing the
	// register.
	RoleServer
)

// String returns the single-letter prefix used in process names.
func (r Role) String() string {
	switch r {
	case RoleWriter:
		return "w"
	case RoleReader:
		return "r"
	case RoleServer:
		return "s"
	default:
		return "?"
	}
}

// Valid reports whether the role is one of the three defined roles.
func (r Role) Valid() bool {
	return r == RoleWriter || r == RoleReader || r == RoleServer
}

// ProcessID names a process in the system. Readers and servers are numbered
// starting from 1, matching the paper (r1..rR, s1..sS). The writer has
// index 0.
type ProcessID struct {
	Role  Role
	Index int
}

// Writer returns the identity of the unique writer process w.
func Writer() ProcessID { return ProcessID{Role: RoleWriter, Index: 0} }

// Reader returns the identity of reader ri (1-based).
func Reader(i int) ProcessID { return ProcessID{Role: RoleReader, Index: i} }

// Server returns the identity of server si (1-based).
func Server(i int) ProcessID { return ProcessID{Role: RoleServer, Index: i} }

// String renders the canonical process name: "w", "r3", "s12".
func (p ProcessID) String() string {
	if p.Role == RoleWriter {
		return "w"
	}
	return p.Role.String() + strconv.Itoa(p.Index)
}

// Valid reports whether the process id is well formed.
func (p ProcessID) Valid() bool {
	switch p.Role {
	case RoleWriter:
		return p.Index == 0
	case RoleReader, RoleServer:
		return p.Index >= 1
	default:
		return false
	}
}

// ClientPID maps the writer to 0 and reader ri to i, exactly as the pid()
// function in Figure 2 of the paper. It is used to index the per-client
// counter array maintained by servers. Servers are not clients; calling
// ClientPID on a server id returns -1.
func (p ProcessID) ClientPID() int {
	switch p.Role {
	case RoleWriter:
		return 0
	case RoleReader:
		return p.Index
	default:
		return -1
	}
}

// ErrBadProcessID reports a malformed process name.
var ErrBadProcessID = errors.New("malformed process id")

// ParseProcessID parses the canonical string form produced by String.
func ParseProcessID(s string) (ProcessID, error) {
	if s == "w" {
		return Writer(), nil
	}
	if len(s) < 2 {
		return ProcessID{}, fmt.Errorf("%w: %q", ErrBadProcessID, s)
	}
	var role Role
	switch s[0] {
	case 'r':
		role = RoleReader
	case 's':
		role = RoleServer
	default:
		return ProcessID{}, fmt.Errorf("%w: %q", ErrBadProcessID, s)
	}
	idx, err := strconv.Atoi(s[1:])
	if err != nil || idx < 1 {
		return ProcessID{}, fmt.Errorf("%w: %q", ErrBadProcessID, s)
	}
	return ProcessID{Role: role, Index: idx}, nil
}

// Timestamp is the logical timestamp attached to written values. The single
// writer generates timestamps 1, 2, 3, ...; 0 denotes the initial value ⊥.
type Timestamp int64

// InitialTimestamp is the timestamp of the initial register value ⊥.
const InitialTimestamp Timestamp = 0

// Less reports whether ts is strictly older than other.
func (ts Timestamp) Less(other Timestamp) bool { return ts < other }

// Next returns the successor timestamp.
func (ts Timestamp) Next() Timestamp { return ts + 1 }

// Prev returns the predecessor timestamp, never going below the initial
// timestamp.
func (ts Timestamp) Prev() Timestamp {
	if ts <= InitialTimestamp {
		return InitialTimestamp
	}
	return ts - 1
}

// Value is the application value stored in the register. A nil Value
// represents the initial value ⊥ (which, per Section 3.1, is not a valid
// input for a write).
type Value []byte

// Bottom is the initial register value ⊥.
func Bottom() Value { return nil }

// IsBottom reports whether the value is ⊥.
func (v Value) IsBottom() bool { return v == nil }

// Clone returns an independent copy of the value.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	out := make(Value, len(v))
	copy(out, v)
	return out
}

// Equal reports whether two values are byte-wise identical (⊥ equals only ⊥).
func (v Value) Equal(other Value) bool {
	if v.IsBottom() || other.IsBottom() {
		return v.IsBottom() && other.IsBottom()
	}
	return string(v) == string(other)
}

// String renders the value for logs and test failures.
func (v Value) String() string {
	if v.IsBottom() {
		return "⊥"
	}
	return strconv.Quote(string(v))
}

// TaggedValue couples a timestamp with the value written at that timestamp
// and the value written immediately before it. Carrying the previous value is
// the "two tags" modification described at the end of Section 4: it lets a
// reader return the value associated with maxTS−1 without another round-trip.
type TaggedValue struct {
	TS   Timestamp
	Cur  Value
	Prev Value
}

// InitialTaggedValue is the register content before any write: timestamp 0
// and both tags ⊥.
func InitialTaggedValue() TaggedValue {
	return TaggedValue{TS: InitialTimestamp, Cur: Bottom(), Prev: Bottom()}
}

// Clone returns a deep copy of the tagged value.
func (tv TaggedValue) Clone() TaggedValue {
	return TaggedValue{TS: tv.TS, Cur: tv.Cur.Clone(), Prev: tv.Prev.Clone()}
}

// At returns the value the tagged value associates with timestamp ts: Cur for
// ts == TS, Prev for ts == TS-1, and ⊥ otherwise (in particular for ts == 0).
func (tv TaggedValue) At(ts Timestamp) Value {
	switch {
	case ts == InitialTimestamp:
		return Bottom()
	case ts == tv.TS:
		return tv.Cur
	case ts == tv.TS-1:
		return tv.Prev
	default:
		return Bottom()
	}
}

// String renders the tagged value.
func (tv TaggedValue) String() string {
	return fmt.Sprintf("{ts=%d cur=%s prev=%s}", tv.TS, tv.Cur, tv.Prev)
}

// ProcessSet is a set of process identities, used for the per-server seen
// sets of the fast algorithm.
type ProcessSet map[ProcessID]struct{}

// NewProcessSet builds a set from the given members.
func NewProcessSet(members ...ProcessID) ProcessSet {
	s := make(ProcessSet, len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

// Add inserts p into the set.
func (s ProcessSet) Add(p ProcessID) { s[p] = struct{}{} }

// Has reports whether p is a member.
func (s ProcessSet) Has(p ProcessID) bool {
	_, ok := s[p]
	return ok
}

// Len returns the number of members.
func (s ProcessSet) Len() int { return len(s) }

// Clone returns an independent copy of the set.
func (s ProcessSet) Clone() ProcessSet {
	out := make(ProcessSet, len(s))
	for p := range s {
		out[p] = struct{}{}
	}
	return out
}

// Members returns the members in a deterministic order (writer, readers by
// index, servers by index).
func (s ProcessSet) Members() []ProcessID {
	out := make([]ProcessID, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sortProcessIDs(out)
	return out
}

// Intersect returns the intersection of s and other.
func (s ProcessSet) Intersect(other ProcessSet) ProcessSet {
	small, big := s, other
	if len(big) < len(small) {
		small, big = big, small
	}
	out := make(ProcessSet)
	for p := range small {
		if big.Has(p) {
			out[p] = struct{}{}
		}
	}
	return out
}

// Union returns the union of s and other.
func (s ProcessSet) Union(other ProcessSet) ProcessSet {
	out := s.Clone()
	for p := range other {
		out[p] = struct{}{}
	}
	return out
}

// ContainsAll reports whether every member of other is also in s.
func (s ProcessSet) ContainsAll(other ProcessSet) bool {
	for p := range other {
		if !s.Has(p) {
			return false
		}
	}
	return true
}

// String renders the set as a sorted list, e.g. "{w,r1,s3}".
func (s ProcessSet) String() string {
	members := s.Members()
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.String()
	}
	return "{" + strings.Join(names, ",") + "}"
}

// sortProcessIDs orders ids writer-first, then readers by index, then servers
// by index.
func sortProcessIDs(ids []ProcessID) {
	less := func(a, b ProcessID) bool {
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		return a.Index < b.Index
	}
	// Insertion sort: id slices here are tiny (≤ R+1 entries).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && less(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// SortProcessIDs sorts ids in the canonical order (writer, readers, servers).
func SortProcessIDs(ids []ProcessID) { sortProcessIDs(ids) }
