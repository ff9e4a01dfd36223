package types

import (
	"testing"
	"testing/quick"
)

func TestProcessIDString(t *testing.T) {
	tests := []struct {
		name string
		id   ProcessID
		want string
	}{
		{name: "writer", id: Writer(), want: "w"},
		{name: "reader 1", id: Reader(1), want: "r1"},
		{name: "reader 12", id: Reader(12), want: "r12"},
		{name: "server 3", id: Server(3), want: "s3"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.id.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestParseProcessIDRoundTrip(t *testing.T) {
	ids := []ProcessID{Writer(), Reader(1), Reader(42), Server(1), Server(99)}
	for _, id := range ids {
		got, err := ParseProcessID(id.String())
		if err != nil {
			t.Fatalf("ParseProcessID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Errorf("round trip %q -> %v, want %v", id.String(), got, id)
		}
	}
}

func TestParseProcessIDErrors(t *testing.T) {
	bad := []string{"", "x1", "r", "s", "r0", "s-1", "w2", "rx", "7"}
	for _, s := range bad {
		if _, err := ParseProcessID(s); err == nil {
			t.Errorf("ParseProcessID(%q) succeeded, want error", s)
		}
	}
}

func TestProcessIDValid(t *testing.T) {
	tests := []struct {
		id   ProcessID
		want bool
	}{
		{Writer(), true},
		{Reader(1), true},
		{Server(5), true},
		{ProcessID{Role: RoleWriter, Index: 1}, false},
		{ProcessID{Role: RoleReader, Index: 0}, false},
		{ProcessID{}, false},
	}
	for _, tt := range tests {
		if got := tt.id.Valid(); got != tt.want {
			t.Errorf("%v.Valid() = %v, want %v", tt.id, got, tt.want)
		}
	}
}

func TestClientPID(t *testing.T) {
	if got := Writer().ClientPID(); got != 0 {
		t.Errorf("writer ClientPID = %d, want 0", got)
	}
	if got := Reader(7).ClientPID(); got != 7 {
		t.Errorf("reader 7 ClientPID = %d, want 7", got)
	}
	if got := Server(3).ClientPID(); got != -1 {
		t.Errorf("server ClientPID = %d, want -1", got)
	}
}

func TestTimestampOrdering(t *testing.T) {
	if !InitialTimestamp.Less(Timestamp(1)) {
		t.Error("initial timestamp should be less than 1")
	}
	if Timestamp(5).Less(Timestamp(5)) {
		t.Error("a timestamp must not be less than itself")
	}
	if got := Timestamp(5).Next(); got != 6 {
		t.Errorf("Next = %d, want 6", got)
	}
	if got := Timestamp(5).Prev(); got != 4 {
		t.Errorf("Prev = %d, want 4", got)
	}
	if got := InitialTimestamp.Prev(); got != InitialTimestamp {
		t.Errorf("Prev of initial = %d, want %d", got, InitialTimestamp)
	}
}

func TestValueBottomAndEqual(t *testing.T) {
	if !Bottom().IsBottom() {
		t.Error("Bottom must be bottom")
	}
	if Value("x").IsBottom() {
		t.Error("non-nil value must not be bottom")
	}
	if !Bottom().Equal(Bottom()) {
		t.Error("⊥ should equal ⊥")
	}
	if Bottom().Equal(Value("x")) || Value("x").Equal(Bottom()) {
		t.Error("⊥ should not equal a real value")
	}
	if !Value("abc").Equal(Value("abc")) {
		t.Error("identical values must be equal")
	}
	if Value("abc").Equal(Value("abd")) {
		t.Error("different values must not be equal")
	}
	// An empty (non-nil) value is a real value, distinct from ⊥.
	if (Value{}).IsBottom() {
		t.Error("empty value must not be bottom")
	}
}

func TestValueClone(t *testing.T) {
	v := Value("hello")
	c := v.Clone()
	c[0] = 'H'
	if string(v) != "hello" {
		t.Errorf("clone aliases original: %q", v)
	}
	if Bottom().Clone() != nil {
		t.Error("clone of ⊥ should remain ⊥")
	}
}

// TestCopyValue pins the retention rule every server keeps a value by: ⊥
// stays ⊥, an empty written value stays non-⊥, dst's buffer is reused unless
// it is too short or more than twice the value, and the result never shares
// src's bytes.
func TestCopyValue(t *testing.T) {
	buf := func(n int) Value { return make(Value, n) }
	shares := func(a, b Value) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }
	for _, tc := range []struct {
		name  string
		dst   Value
		src   Value
		reuse bool
	}{
		{"⊥ over a buffer", buf(8), nil, false},
		{"empty over ⊥", nil, Value{}, false},
		{"empty over a buffer", buf(8), Value{}, false},
		{"into ⊥", nil, Value("abc"), false},
		{"same size", buf(5), Value("hello"), true},
		{"shorter, within twice", buf(8), Value("four"), true},
		{"too short", buf(4), Value("hello"), false},
		{"more than twice", buf(11), Value("hello"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src.Clone()
			got := CopyValue(tc.dst, src)
			if !got.Equal(tc.src) {
				t.Fatalf("CopyValue = %s, want %s", got, tc.src)
			}
			if shares(got, tc.dst) != tc.reuse {
				t.Errorf("reused dst's buffer: %v, want %v", shares(got, tc.dst), tc.reuse)
			}
			if cap(got) > 2*len(got) {
				t.Errorf("kept a buffer of %d bytes for a %d-byte value", cap(got), len(got))
			}
			if len(src) > 0 {
				src[0] ^= 0xff
				if !got.Equal(tc.src) {
					t.Errorf("overwriting the source changed the copy to %s", got)
				}
			}
		})
	}
}

// TestTaggedValueCopyFromAllocatesNothing: a register rewriting values of a
// stable size reuses its buffers, and one that needs new ones allocates once
// for Cur and Prev together.
func TestTaggedValueCopyFromAllocatesNothing(t *testing.T) {
	src := TaggedValue{TS: 1, Cur: Value("current"), Prev: Value("previous")}
	if n := testing.AllocsPerRun(100, func() {
		var fresh TaggedValue
		fresh.CopyFrom(src)
		sink = fresh
	}); n != 1 {
		t.Errorf("CopyFrom into a register without buffers allocates %.1f times, want 1", n)
	}
	var tv TaggedValue
	tv.CopyFrom(TaggedValue{TS: 1, Cur: Value("first")})
	tv.CopyFrom(src)
	if n := testing.AllocsPerRun(100, func() { src.TS++; tv.CopyFrom(src) }); n != 0 {
		t.Errorf("a same-size CopyFrom allocates %.1f times, want 0", n)
	}
	if tv.TS != src.TS || !tv.Cur.Equal(src.Cur) || !tv.Prev.Equal(src.Prev) {
		t.Errorf("CopyFrom = %s, want %s", tv, src)
	}
	tv.CopyFrom(TaggedValue{TS: src.TS + 1, Cur: Value("next")})
	if !tv.Cur.Equal(Value("next")) || !tv.Prev.IsBottom() {
		t.Errorf("CopyFrom of a value without a predecessor = %s, want cur \"next\", prev ⊥", tv)
	}
}

// sink keeps a test's value on the heap, as a register's is.
var sink TaggedValue

func TestTaggedValueAt(t *testing.T) {
	tv := TaggedValue{TS: 7, Cur: Value("v7"), Prev: Value("v6")}
	if got := tv.At(7); !got.Equal(Value("v7")) {
		t.Errorf("At(7) = %s", got)
	}
	if got := tv.At(6); !got.Equal(Value("v6")) {
		t.Errorf("At(6) = %s", got)
	}
	if got := tv.At(5); !got.IsBottom() {
		t.Errorf("At(5) = %s, want ⊥", got)
	}
	if got := tv.At(0); !got.IsBottom() {
		t.Errorf("At(0) = %s, want ⊥", got)
	}
	init := InitialTaggedValue()
	if init.TS != InitialTimestamp || !init.Cur.IsBottom() || !init.Prev.IsBottom() {
		t.Errorf("unexpected initial tagged value %v", init)
	}
}

func TestTaggedValueString(t *testing.T) {
	tests := []struct {
		name string
		tv   TaggedValue
		want string
	}{
		{"initial", InitialTaggedValue(), "{ts=0 cur=⊥ prev=⊥}"},
		{"first write", TaggedValue{TS: 1, Cur: Value("a"), Prev: Bottom()}, `{ts=1 cur="a" prev=⊥}`},
		{"quoted bytes", TaggedValue{TS: 7, Cur: Value("x\"y"), Prev: Value("\n")}, `{ts=7 cur="x\"y" prev="\n"}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.tv.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestProcessSetOperations(t *testing.T) {
	s := NewProcessSet(Writer(), Reader(1))
	if !s.Has(Writer()) || !s.Has(Reader(1)) || s.Has(Reader(2)) {
		t.Fatalf("unexpected membership in %v", s)
	}
	s.Add(Reader(2))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}

	other := NewProcessSet(Reader(1), Reader(2), Reader(3))
	inter := s.Intersect(other)
	if inter.Len() != 2 || !inter.Has(Reader(1)) || !inter.Has(Reader(2)) {
		t.Errorf("Intersect = %v", inter)
	}
	union := s.Union(other)
	if union.Len() != 4 {
		t.Errorf("Union = %v", union)
	}
	if !union.ContainsAll(s) || !union.ContainsAll(other) {
		t.Error("union must contain both operands")
	}
	if inter.ContainsAll(s) {
		t.Error("intersection must not contain writer")
	}

	clone := s.Clone()
	clone.Add(Server(9))
	if s.Has(Server(9)) {
		t.Error("clone aliases original")
	}
}

func TestProcessSetString(t *testing.T) {
	s := NewProcessSet(Server(2), Reader(1), Writer(), Server(1))
	if got := s.String(); got != "{w,r1,s1,s2}" {
		t.Errorf("String() = %q", got)
	}
}

func TestSortProcessIDs(t *testing.T) {
	ids := []ProcessID{Server(2), Reader(3), Writer(), Reader(1), Server(1)}
	SortProcessIDs(ids)
	want := []ProcessID{Writer(), Reader(1), Reader(3), Server(1), Server(2)}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v (full: %v)", i, ids[i], want[i], ids)
		}
	}
}

func TestProcessSetIntersectionCommutative(t *testing.T) {
	f := func(aIdx, bIdx []uint8) bool {
		a, b := NewProcessSet(), NewProcessSet()
		for _, i := range aIdx {
			a.Add(Reader(int(i%16) + 1))
		}
		for _, i := range bIdx {
			b.Add(Reader(int(i%16) + 1))
		}
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		return ab.ContainsAll(ba) && ba.ContainsAll(ab)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaggedValueCloneIndependent(t *testing.T) {
	tv := TaggedValue{TS: 3, Cur: Value("cur"), Prev: Value("prev")}
	c := tv.Clone()
	c.Cur[0] = 'X'
	c.Prev[0] = 'Y'
	if string(tv.Cur) != "cur" || string(tv.Prev) != "prev" {
		t.Errorf("clone aliases original: %v", tv)
	}
}

func TestClientMask(t *testing.T) {
	if got := ClientBit(Writer()); got != 1 {
		t.Errorf("writer bit = %b, want 1", got)
	}
	if got := ClientBit(Reader(5)); got != 1<<5 {
		t.Errorf("r5 bit = %b, want bit 5", got)
	}
	for _, p := range []ProcessID{Server(1), {}, Reader(0), {Role: RoleWriter, Index: 1}, Reader(MaxClientBits)} {
		if got := ClientBit(p); got != 0 {
			t.Errorf("%v has bit %b, want none", p, got)
		}
	}
	m := ClientMaskOf(Reader(3), Writer(), Server(2), Reader(3))
	if !m.Has(Writer()) || !m.Has(Reader(3)) || m.Has(Reader(1)) || m.Has(Server(2)) || m.Len() != 2 {
		t.Errorf("mask %b: membership wrong", m)
	}
	if got := m.String(); got != "{w,r3}" {
		t.Errorf("String = %q, want {w,r3}", got)
	}
	if got := Clients(2); got != 0b111 {
		t.Errorf("Clients(2) = %b, want w, r1, r2", got)
	}
	if got := Clients(40); got != ^ClientMask(0) {
		t.Errorf("Clients(40) = %b, want every bit", got)
	}
	if got := (^ClientMask(0)).Members(); len(got) != MaxClientBits || got[0] != Writer() || got[31] != Reader(31) {
		t.Errorf("every bit lists %v", got)
	}
}
