package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fastread/internal/types"
)

func sampleMessages() []*Message {
	return []*Message{
		{Op: OpWrite, TS: 1, Cur: types.Value("v1"), RCounter: 0},
		{Op: OpWriteAck, TS: 1, Seen: []types.ProcessID{types.Writer()}},
		{Op: OpRead, TS: 0, RCounter: 3},
		{
			Op:       OpReadAck,
			TS:       7,
			Cur:      types.Value("current"),
			Prev:     types.Value("previous"),
			Seen:     []types.ProcessID{types.Writer(), types.Reader(1), types.Reader(3)},
			RCounter: 9,
		},
		{Op: OpGossip, TS: 12},
		{Op: OpGossipAck, TS: 12, Cur: types.Value("g")},
		{Op: OpWriteBack, TS: 4, Cur: types.Value("wb"), WriterRank: 2},
		{Op: OpWriteBackAck, TS: 4},
		{Op: OpQuery, RCounter: 1},
		{Op: OpQueryAck, TS: 99, Cur: types.Value("q"), WriterRank: 7, Phase: 1},
		{Op: OpReadAck, TS: 5, Cur: types.Value{}, Prev: types.Bottom()},
		{Op: OpWrite, TS: 2, Cur: types.Value("signed"), WriterSig: bytes.Repeat([]byte{0xAB}, 64)},
		{Op: OpWrite, Key: "user/42/profile", TS: 3, Cur: types.Value("keyed")},
		{Op: OpReadAck, Key: "κλειδί\x00with\xffbytes", TS: 1, Cur: types.Value("k"), RCounter: 2},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		data, err := Encode(m)
		if err != nil {
			t.Fatalf("sample %d: Encode: %v", i, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("sample %d: Decode: %v", i, err)
		}
		if !messagesEqual(m, got) {
			t.Errorf("sample %d: round trip mismatch\n in: %+v\nout: %+v", i, m, got)
		}
	}
}

// seenOf is the seen mask a message encodes: its SeenMask with its Seen
// members ORed in.
func seenOf(m *Message) types.ClientMask { return m.SeenMask | types.ClientMaskOf(m.Seen...) }

// messagesEqual compares messages treating nil and empty WriterSig alike; the
// codec preserves nil-ness for Value, and the seen set compares as the mask
// it encodes to.
func messagesEqual(a, b *Message) bool {
	if a.Op != b.Op || a.Key != b.Key || a.TS != b.TS || a.RCounter != b.RCounter ||
		a.WriterRank != b.WriterRank || a.Phase != b.Phase {
		return false
	}
	if !a.Cur.Equal(b.Cur) || a.Cur.IsBottom() != b.Cur.IsBottom() {
		return false
	}
	if !a.Prev.Equal(b.Prev) || a.Prev.IsBottom() != b.Prev.IsBottom() {
		return false
	}
	if seenOf(a) != seenOf(b) {
		return false
	}
	return bytes.Equal(a.WriterSig, b.WriterSig)
}

func TestDecodeRejectsTruncated(t *testing.T) {
	m := &Message{
		Op:   OpReadAck,
		TS:   7,
		Cur:  types.Value("current"),
		Prev: types.Value("previous"),
		Seen: []types.ProcessID{types.Writer(), types.Reader(1)},
	}
	data := MustEncode(m)
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("Decode of %d-byte prefix succeeded, want error", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	data := MustEncode(&Message{Op: OpRead, RCounter: 1})
	if _, err := Decode(append(data, 0x00)); err == nil {
		t.Error("Decode with trailing byte succeeded, want error")
	}
}

func TestDecodeRejectsBadVersionAndOp(t *testing.T) {
	data := MustEncode(&Message{Op: OpRead, RCounter: 1})
	bad := append([]byte(nil), data...)
	bad[0] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("Decode with bad version succeeded")
	}
	bad = append([]byte(nil), data...)
	bad[1] = 200
	if _, err := Decode(bad); err == nil {
		t.Error("Decode with bad op succeeded")
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	tests := []*Message{
		{Op: 0},
		{Op: OpRead, TS: -1},
		{Op: OpRead, RCounter: -2},
		{Op: OpReadAck, Seen: []types.ProcessID{{}}},
		{Op: OpReadAck, Seen: []types.ProcessID{types.Server(1)}},
		{Op: OpReadAck, Seen: []types.ProcessID{types.Reader(types.MaxClientBits)}},
	}
	for i, m := range tests {
		if _, err := Encode(m); err == nil {
			t.Errorf("case %d: Encode succeeded for invalid message %+v", i, m)
		}
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		// Must not panic; errors are fine.
		_, _ = Decode(buf)
	}
}

func TestBottomVersusEmptyValuePreserved(t *testing.T) {
	m := &Message{Op: OpReadAck, TS: 1, Cur: types.Value{}, Prev: types.Bottom()}
	got, err := Decode(MustEncode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cur.IsBottom() {
		t.Error("empty value decoded as ⊥")
	}
	if !got.Prev.IsBottom() {
		t.Error("⊥ decoded as non-⊥")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(op uint8, ts uint32, rc uint32, cur []byte, prev []byte, seenIdx []uint8, sig []byte, rank int32, phase int32) bool {
		m := &Message{
			Op:         Op(op%10) + 1,
			TS:         types.Timestamp(ts),
			RCounter:   int64(rc),
			Cur:        cur,
			Prev:       prev,
			WriterRank: rank,
			Phase:      phase,
		}
		if len(sig) > MaxSigSize {
			sig = sig[:MaxSigSize]
		}
		m.WriterSig = sig
		for _, i := range seenIdx {
			switch i % 3 {
			case 0:
				m.Seen = append(m.Seen, types.Writer())
			case 1:
				m.Seen = append(m.Seen, types.Reader(int(i)%(types.MaxClientBits-1)+1))
			default:
				m.SeenMask |= 1 << (i % types.MaxClientBits)
			}
		}
		data, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return messagesEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	m := &Message{
		Op:   OpReadAck,
		TS:   3,
		Cur:  types.Value("x"),
		Seen: []types.ProcessID{types.Reader(2), types.Writer()},
	}
	a := MustEncode(m)
	b := MustEncode(m)
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same message differ")
	}
}

func TestSignedBytesDeterministicAndDistinct(t *testing.T) {
	a := SignedBytes(1, types.Value("v"), types.Bottom())
	b := SignedBytes(1, types.Value("v"), types.Bottom())
	if !bytes.Equal(a, b) {
		t.Error("SignedBytes not deterministic")
	}
	c := SignedBytes(2, types.Value("v"), types.Bottom())
	if bytes.Equal(a, c) {
		t.Error("different timestamps produced identical signed bytes")
	}
	d := SignedBytes(1, types.Value("w"), types.Bottom())
	if bytes.Equal(a, d) {
		t.Error("different values produced identical signed bytes")
	}
	e := SignedBytes(1, types.Value("v"), types.Value(""))
	if bytes.Equal(a, e) {
		t.Error("⊥ and empty previous value produced identical signed bytes")
	}
}

// TestKeyedEnvelopeRoundTrip exercises the register-key field of the keyed
// envelope: the empty key (what legacy single-register deployments send),
// short keys, a key at exactly the size limit, and keys just over it.
func TestKeyedEnvelopeRoundTrip(t *testing.T) {
	longKey := string(bytes.Repeat([]byte("k"), MaxKeySize))
	keys := []string{"", "a", "user/42/profile", "\x00\xff", longKey}
	for _, key := range keys {
		m := &Message{Op: OpReadAck, Key: key, TS: 9, Cur: types.Value("v"), RCounter: 4}
		data, err := Encode(m)
		if err != nil {
			t.Fatalf("key %d bytes: Encode: %v", len(key), err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("key %d bytes: Decode: %v", len(key), err)
		}
		if got.Key != key {
			t.Errorf("key %d bytes: round-tripped to %d bytes", len(key), len(got.Key))
		}
		peeked, err := PeekKey(data)
		if err != nil {
			t.Fatalf("key %d bytes: PeekKey: %v", len(key), err)
		}
		if peeked != key {
			t.Errorf("key %d bytes: PeekKey returned %d bytes", len(key), len(peeked))
		}
	}
}

func TestKeyTooLongRejected(t *testing.T) {
	tooLong := string(bytes.Repeat([]byte("k"), MaxKeySize+1))
	if _, err := Encode(&Message{Op: OpRead, Key: tooLong, RCounter: 1}); err == nil {
		t.Error("Encode accepted an oversized key")
	}
	// A hostile encoding claiming an oversized key must be rejected by both
	// Decode and PeekKey without huge allocations.
	data := MustEncode(&Message{Op: OpRead, RCounter: 1})
	hostile := []byte{data[0], data[1], 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := Decode(hostile); err == nil {
		t.Error("Decode accepted a hostile key length")
	}
	if _, err := PeekKey(hostile); err == nil {
		t.Error("PeekKey accepted a hostile key length")
	}
}

func TestPeekKeyMatchesDecode(t *testing.T) {
	for i, m := range sampleMessages() {
		data := MustEncode(m)
		peeked, err := PeekKey(data)
		if err != nil {
			t.Fatalf("sample %d: PeekKey: %v", i, err)
		}
		if peeked != m.Key {
			t.Errorf("sample %d: PeekKey = %q, Key = %q", i, peeked, m.Key)
		}
	}
	if _, err := PeekKey(nil); err == nil {
		t.Error("PeekKey on empty input succeeded")
	}
	if _, err := PeekKey([]byte{99, 1, 0}); err == nil {
		t.Error("PeekKey accepted a bad version")
	}
}

// TestKeyedSignedBytesDomainSeparation checks that the signed byte strings of
// different registers can never collide, even when key bytes are crafted to
// resemble another register's timestamp prefix.
func TestKeyedSignedBytesDomainSeparation(t *testing.T) {
	a := KeyedSignedBytes("k1", 1, types.Value("v"), types.Bottom())
	if !bytes.Equal(a, KeyedSignedBytes("k1", 1, types.Value("v"), types.Bottom())) {
		t.Error("KeyedSignedBytes not deterministic")
	}
	b := KeyedSignedBytes("k2", 1, types.Value("v"), types.Bottom())
	if bytes.Equal(a, b) {
		t.Error("different keys produced identical signed bytes")
	}
	legacy := KeyedSignedBytes("", 1, types.Value("v"), types.Bottom())
	if bytes.Equal(a, legacy) {
		t.Error("keyed and default-register signed bytes collide")
	}
	if !bytes.Equal(legacy, SignedBytes(1, types.Value("v"), types.Bottom())) {
		t.Error("SignedBytes is not the empty-key KeyedSignedBytes")
	}
}

func TestOpHelpers(t *testing.T) {
	for op := OpWrite; op <= OpQueryAck; op++ {
		if !op.Valid() {
			t.Errorf("op %d should be valid", op)
		}
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if Op(0).Valid() || Op(200).Valid() {
		t.Error("invalid ops reported valid")
	}
	reqs := []Op{OpWrite, OpRead, OpGossip, OpWriteBack, OpQuery}
	for _, r := range reqs {
		if !r.IsRequest() {
			t.Errorf("%v should be a request", r)
		}
		ack, err := AckFor(r)
		if err != nil {
			t.Errorf("AckFor(%v): %v", r, err)
		}
		if ack.IsRequest() {
			t.Errorf("AckFor(%v) = %v is a request", r, ack)
		}
	}
	if _, err := AckFor(OpReadAck); err == nil {
		t.Error("AckFor on an ack should error")
	}
}

// TestOpTableAllValues pins String, Valid and AckFor for every one of the 256
// ops: the ten defined ones by name, every other one as op(N), invalid and
// without an ack.
func TestOpTableAllValues(t *testing.T) {
	names := map[Op]string{
		OpWrite: "write", OpWriteAck: "writeack",
		OpRead: "read", OpReadAck: "readack",
		OpGossip: "gossip", OpGossipAck: "gossipack",
		OpWriteBack: "writeback", OpWriteBackAck: "writebackack",
		OpQuery: "query", OpQueryAck: "queryack",
	}
	acks := map[Op]Op{
		OpWrite: OpWriteAck, OpRead: OpReadAck, OpGossip: OpGossipAck,
		OpWriteBack: OpWriteBackAck, OpQuery: OpQueryAck,
	}
	for i := 0; i < 256; i++ {
		op := Op(i)
		name, defined := names[op]
		if !defined {
			name = fmt.Sprintf("op(%d)", i)
		}
		if got := op.String(); got != name {
			t.Errorf("Op(%d).String() = %q, want %q", i, got, name)
		}
		if (&Message{Op: op}).Kind() != name {
			t.Errorf("Op(%d): Kind differs from String", i)
		}
		if op.Valid() != defined {
			t.Errorf("Op(%d).Valid() = %v, want %v", i, op.Valid(), defined)
		}
		ack, err := AckFor(op)
		want, hasAck := acks[op]
		switch {
		case hasAck && (err != nil || ack != want):
			t.Errorf("AckFor(%v) = %v, %v; want %v", op, ack, err, want)
		case !hasAck && err == nil:
			t.Errorf("AckFor(%v) = %v, want an error", op, ack)
		}
	}
}

func TestMessageClone(t *testing.T) {
	m := &Message{
		Op:        OpReadAck,
		TS:        2,
		Cur:       types.Value("cur"),
		Prev:      types.Value("prev"),
		Seen:      []types.ProcessID{types.Writer()},
		WriterSig: []byte{1, 2, 3},
	}
	c := m.Clone()
	c.Cur[0] = 'X'
	c.Prev[0] = 'Y'
	c.Seen[0] = types.Reader(5)
	c.WriterSig[0] = 9
	if string(m.Cur) != "cur" || string(m.Prev) != "prev" || m.Seen[0] != types.Writer() || m.WriterSig[0] != 1 {
		t.Errorf("Clone aliases original: %+v", m)
	}
}

func TestKindMatchesOpName(t *testing.T) {
	m := &Message{Op: OpWriteAck}
	if m.Kind() != "writeack" {
		t.Errorf("Kind = %q", m.Kind())
	}
}

func TestTagged(t *testing.T) {
	m := &Message{Op: OpReadAck, TS: 5, Cur: types.Value("a"), Prev: types.Value("b")}
	tv := m.Tagged()
	want := types.TaggedValue{TS: 5, Cur: types.Value("a"), Prev: types.Value("b")}
	if !reflect.DeepEqual(tv, want) {
		t.Errorf("Tagged = %v, want %v", tv, want)
	}
}

// TestDecodeIntoAliasesPayload pins the ownership discipline: the aliasing
// decode must NOT copy value bytes (mutating the payload shows through), and
// the copying Decode must be unaffected by later payload mutation.
func TestDecodeIntoAliasesPayload(t *testing.T) {
	m := &Message{
		Op:        OpReadAck,
		TS:        3,
		Cur:       types.Value("cur-bytes"),
		Prev:      types.Value("prev-bytes"),
		WriterSig: []byte{9, 9, 9},
	}
	data := MustEncode(m)

	var aliased Message
	if err := DecodeInto(&aliased, data); err != nil {
		t.Fatal(err)
	}
	copied, err := Decode(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the payload in place: the aliasing view must change, proving
	// it did not copy.
	for i := range data {
		data[i] = 0xFF
	}
	if string(aliased.Cur) == "cur-bytes" {
		t.Error("DecodeInto copied Cur; expected it to alias the payload")
	}
	if string(copied.Cur) != "cur-bytes" || string(copied.Prev) != "prev-bytes" {
		t.Error("Decode result aliases the payload; expected owned copies")
	}
}

// TestDecodeIntoOverwritesSeenMask checks the scratch-reuse contract for the
// seen set: decoding into a used scratch replaces its mask, and decoding
// never fills the encoder-only Seen list.
func TestDecodeIntoOverwritesSeenMask(t *testing.T) {
	big := MustEncode(&Message{Op: OpReadAck, TS: 1, Seen: []types.ProcessID{
		types.Writer(), types.Reader(1), types.Reader(2), types.Reader(3),
	}})
	small := MustEncode(&Message{Op: OpReadAck, TS: 2, SeenMask: types.ClientBit(types.Writer())})

	var scratch Message
	if err := DecodeInto(&scratch, big); err != nil {
		t.Fatal(err)
	}
	if want := types.ClientMask(0b1111); scratch.SeenMask != want || scratch.Seen != nil {
		t.Errorf("first decode: mask %v, list %v; want %v and no list", scratch.SeenMask, scratch.Seen, want)
	}
	if err := DecodeInto(&scratch, small); err != nil {
		t.Fatal(err)
	}
	if scratch.SeenMask != types.ClientBit(types.Writer()) {
		t.Errorf("reused decode produced seen set %v, want {w}", scratch.SeenMask)
	}
}

// TestReadAckSize pins the encoded size of a read ack at the benchmark
// harness's shape (5-byte key, 128-byte values, no signature): the seen set
// costs 4 bytes whatever its size, where format version 2 spent a 4-byte
// length plus 5 bytes per member. A version-2 payload is refused.
func TestReadAckSize(t *testing.T) {
	value := bytes.Repeat([]byte{0xA5}, 128)
	for _, members := range []int{2, 17} {
		seen := []types.ProcessID{types.Writer()}
		for i := 1; i < members; i++ {
			seen = append(seen, types.Reader(i))
		}
		ack := &Message{Op: OpReadAck, Key: "k0001", TS: 7, Cur: value, Prev: value, Seen: seen, RCounter: 1 << 40}
		v3 := MustEncode(ack)
		if len(v3) != 299 {
			t.Errorf("|seen|=%d: read ack is %d bytes, want 299", members, len(v3))
		}

		// The same ack under version 2: the mask's 4 bytes become the
		// member count and then (role, index) per member.
		maskAt := len(v3) - 4 - 1 // the mask, then the empty signature's length
		v2 := append([]byte(nil), v3[:maskAt]...)
		v2[0] = 2
		v2 = append(v2, byte(members), 0, 0, 0)
		for _, p := range seen {
			v2 = append(v2, byte(p.Role), byte(p.Index), 0, 0, 0)
		}
		v2 = append(v2, v3[maskAt+4:]...)
		if got, want := len(v2)-len(v3), 5*members; got != want {
			t.Errorf("|seen|=%d: version 3 saves %d bytes, want %d", members, got, want)
		}
		if _, err := Decode(v2); !errors.Is(err, ErrVersion) {
			t.Errorf("|seen|=%d: decoding a version-2 ack: %v, want ErrVersion", members, err)
		}
	}
}

// TestAppendEncodeMatchesEncode checks byte-for-byte agreement of the two
// encoders, including appending after an existing prefix.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	for i, m := range sampleMessages() {
		want := MustEncode(m)
		got, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("sample %d: AppendEncode: %v", i, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("sample %d: AppendEncode differs from Encode", i)
		}
		prefixed, err := AppendEncode([]byte("abc"), m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prefixed, append([]byte("abc"), want...)) {
			t.Errorf("sample %d: AppendEncode with prefix mangled output", i)
		}
	}
	if _, err := AppendEncode(nil, &Message{Op: 0}); err == nil {
		t.Error("AppendEncode accepted an invalid message")
	}
}
