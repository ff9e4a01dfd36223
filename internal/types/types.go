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
	"math/bits"
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
// function in Figure 2 of the paper. It indexes the per-client counter array
// maintained by servers and is the client's bit in a ClientMask. Servers are
// not clients; calling ClientPID on a server id returns -1.
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

// MaxClientBits is the number of clients a ClientMask can hold: the writer
// and readers r1..r31.
const MaxClientBits = 32

// ClientMask is a set of clients with one bit per client: client p is bit
// p.ClientPID(), so the writer is bit 0 and reader ri bit i. It is the fast
// register's seen set everywhere from server state over the wire to the
// reader's predicate, and it is copied by value. Servers and readers past
// r31 have no bit.
type ClientMask uint32

// ClientBit returns the mask holding only client p, or 0 when p has no bit
// (a server, a malformed id or a reader past r31).
func ClientBit(p ProcessID) ClientMask {
	switch {
	case p.Role == RoleWriter && p.Index == 0:
		return 1
	case p.Role == RoleReader && p.Index >= 1 && p.Index < MaxClientBits:
		return 1 << p.Index
	default:
		return 0
	}
}

// Clients returns the mask of the writer and readers r1..rR: the legitimate
// clients of a deployment with R readers (all 32 bits for R ≥ 31).
func Clients(readers int) ClientMask {
	return ClientMask(uint64(1)<<min(max(readers, 0)+1, MaxClientBits) - 1)
}

// ClientMaskOf returns the mask of the given clients; members without a bit
// are left out.
func ClientMaskOf(members ...ProcessID) ClientMask {
	var m ClientMask
	for _, p := range members {
		m |= ClientBit(p)
	}
	return m
}

// Has reports whether client p is in the mask.
func (m ClientMask) Has(p ProcessID) bool { return m&ClientBit(p) != 0 }

// Len returns the number of clients in the mask.
func (m ClientMask) Len() int { return bits.OnesCount32(uint32(m)) }

// Members lists the clients in canonical order: the writer, then readers by
// index.
func (m ClientMask) Members() []ProcessID {
	out := make([]ProcessID, 0, m.Len())
	for rest := uint32(m); rest != 0; rest &= rest - 1 {
		if i := bits.TrailingZeros32(rest); i == 0 {
			out = append(out, Writer())
		} else {
			out = append(out, Reader(i))
		}
	}
	return out
}

// String renders the mask as a sorted list, e.g. "{w,r1,r3}".
func (m ClientMask) String() string {
	names := make([]string, 0, m.Len())
	for _, p := range m.Members() {
		names = append(names, p.String())
	}
	return "{" + strings.Join(names, ",") + "}"
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

// CopyValue returns src's bytes in dst's buffer: the retention point of a
// server that keeps a value past the message carrying it (wire's rule 3).
// dst's capacity is reused, so a register rewriting values of a stable size
// allocates nothing. ⊥ stays ⊥ and an empty value stays non-⊥. A new buffer
// of exactly len(src) is allocated when dst's is too short or more than
// twice that long, so a register keeps no buffer a larger old value left
// behind. src must not share dst's buffer.
func CopyValue(dst, src Value) Value {
	if src == nil {
		return nil
	}
	if !fits(dst, src) {
		dst = make(Value, 0, len(src))
	}
	return append(dst[:0], src...)
}

// fits reports whether CopyValue may copy src into dst's buffer: ⊥ needs
// none, and any other value one at least as long and at most twice as long.
func fits(dst, src Value) bool {
	return src == nil || (dst != nil && len(src) <= cap(dst) && cap(dst) <= 2*len(src))
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

// CopyFrom makes tv hold src in tv's own buffers (CopyValue). When either
// value needs a new buffer, Cur and Prev get one allocation together: a
// register's value is one contiguous block, which matters to a process
// hosting many registers, whose acks read it. src must not share tv's
// buffers.
func (tv *TaggedValue) CopyFrom(src TaggedValue) {
	tv.TS = src.TS
	if !fits(tv.Cur, src.Cur) || !fits(tv.Prev, src.Prev) {
		buf := make(Value, len(src.Cur)+len(src.Prev))
		tv.Cur, tv.Prev = buf[:len(src.Cur):len(src.Cur)], buf[len(src.Cur):]
	}
	tv.Cur = CopyValue(tv.Cur, src.Cur)
	tv.Prev = CopyValue(tv.Prev, src.Prev)
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

// ProcessSet is a set of process identities as a map. The fast register
// carries its seen sets as a ClientMask; ProcessSet remains the input of
// core.EvaluatePredicate's map adapter.
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
