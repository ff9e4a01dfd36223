package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"fastread/internal/types"
)

// collectBatch decodes every payload view of a batch into owned copies.
func collectBatch(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	if err := ForEachInBatch(data, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("ForEachInBatch: %v", err)
	}
	return out
}

func TestBatchRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	b := NewBatch(0)
	var want [][]byte
	for i, m := range msgs {
		enc := MustEncode(m)
		want = append(want, enc)
		// Alternate the two append paths; they must be byte-identical.
		if i%2 == 0 {
			b.Append(enc)
		} else if err := b.AppendMessage(m); err != nil {
			t.Fatalf("AppendMessage: %v", err)
		}
	}
	if b.Count() != len(msgs) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(msgs))
	}
	data := b.Bytes()
	if !IsBatch(data) {
		t.Fatal("encoded batch not recognised by IsBatch")
	}
	got := collectBatch(t, data)
	if len(got) != len(want) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("message %d differs after batch round trip", i)
		}
		if _, err := Decode(got[i]); err != nil {
			t.Fatalf("message %d undecodable after batch round trip: %v", i, err)
		}
	}
}

func TestBatchPrefix(t *testing.T) {
	const prefix = 20
	b := NewBatch(prefix)
	enc := MustEncode(&Message{Op: OpReadAck, TS: 7, RCounter: 3})
	b.Append(enc)

	full := b.PrefixedBytes()
	if len(full) != prefix+b.Size() {
		t.Fatalf("PrefixedBytes len %d, want prefix %d + size %d", len(full), prefix, b.Size())
	}
	if !IsBatch(full[prefix:]) {
		t.Fatal("envelope does not start after the reserved prefix")
	}
	if !bytes.Equal(b.Bytes(), full[prefix:]) {
		t.Fatal("Bytes and PrefixedBytes disagree on the envelope")
	}
}

func TestBatchSplice(t *testing.T) {
	inner := NewBatch(0)
	m1 := MustEncode(&Message{Op: OpReadAck, TS: 1})
	m2 := MustEncode(&Message{Op: OpWriteAck, TS: 2})
	inner.Append(m1)
	inner.Append(m2)

	outer := NewBatch(0)
	m0 := MustEncode(&Message{Op: OpRead, RCounter: 9})
	outer.Append(m0)
	if err := outer.Splice(inner.Bytes()); err != nil {
		t.Fatalf("Splice: %v", err)
	}
	got := collectBatch(t, outer.Bytes())
	if len(got) != 3 {
		t.Fatalf("spliced batch has %d messages, want 3", len(got))
	}
	for i, want := range [][]byte{m0, m1, m2} {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("spliced message %d differs", i)
		}
	}
	if err := outer.Splice([]byte{1, 2, 3}); err == nil {
		t.Fatal("Splice accepted a non-batch payload")
	}
}

func TestBatchEmptyAndReset(t *testing.T) {
	b := NewBatch(0)
	if b.Bytes() != nil || b.PrefixedBytes() != nil {
		t.Fatal("empty batch produced bytes")
	}
	b.Append([]byte("x"))
	b.Reset()
	if b.Count() != 0 || b.Bytes() != nil {
		t.Fatal("Reset did not empty the batch")
	}
	b.Append([]byte("y"))
	if got := collectBatch(t, b.Bytes()); len(got) != 1 || string(got[0]) != "y" {
		t.Fatalf("reused batch decoded to %q", got)
	}
	b.Detach()
	if b.buf != nil {
		t.Fatal("Detach retained the buffer")
	}
}

func TestForEachInBatchMalformed(t *testing.T) {
	valid := NewBatch(0)
	valid.Append(MustEncode(&Message{Op: OpRead, RCounter: 1}))
	data := append([]byte(nil), valid.Bytes()...)

	cases := map[string][]byte{
		"empty":            nil,
		"short header":     {batchMarker, 1, 0},
		"not a batch":      {formatVersion, 1, 0, 0, 0},
		"huge count":       {batchMarker, 0xFF, 0xFF, 0xFF, 0xFF},
		"count overruns":   {batchMarker, 2, 0, 0, 0, 1, 0, 0, 0, 'x'},
		"entry overruns":   {batchMarker, 1, 0, 0, 0, 9, 0, 0, 0, 'x'},
		"trailing bytes":   append(append([]byte(nil), data...), 0xEE),
		"truncated entry":  data[:len(data)-1],
		"zero with excess": {batchMarker, 0, 0, 0, 0, 1},
	}
	for name, bad := range cases {
		if err := ForEachInBatch(bad, func([]byte) error { return nil }); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}

	// A zero-message batch with no trailing bytes is a valid no-op.
	calls := 0
	if err := ForEachInBatch([]byte{batchMarker, 0, 0, 0, 0}, func([]byte) error { calls++; return nil }); err != nil {
		t.Errorf("zero-message batch: %v", err)
	}
	if calls != 0 {
		t.Errorf("zero-message batch invoked fn %d times", calls)
	}

	// fn errors propagate and stop the iteration.
	sentinel := errors.New("stop")
	if err := ForEachInBatch(data, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("fn error not propagated: %v", err)
	}
}

func TestBatchCountMatchesIteration(t *testing.T) {
	b := NewBatch(0)
	for i := 0; i < 17; i++ {
		b.Append(MustEncode(&Message{Op: OpReadAck, TS: types.Timestamp(i + 1)}))
	}
	n, err := BatchCount(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 17 {
		t.Fatalf("BatchCount = %d, want 17", n)
	}
}

// TestBatchSingleDecodersReject pins the marker/version separation both
// ways: a batch envelope must never decode as a single message (or leak a
// key to the demux), and a single message must never be taken for a batch.
func TestBatchSingleDecodersReject(t *testing.T) {
	b := NewBatch(0)
	b.Append(MustEncode(&Message{Op: OpRead, Key: "k", RCounter: 1}))
	env := b.Bytes()
	if _, err := Decode(env); err == nil {
		t.Fatal("Decode accepted a batch envelope")
	}
	if _, err := PeekKey(env); err == nil {
		t.Fatal("PeekKey accepted a batch envelope")
	}
	single := MustEncode(&Message{Op: OpRead, Key: "k", RCounter: 1})
	if IsBatch(single) {
		t.Fatal("IsBatch accepted a single message")
	}
	if _, err := BatchCount(single); err == nil {
		t.Fatal("BatchCount accepted a single message")
	}
}

func TestBatchAppendMessageRejectsInvalid(t *testing.T) {
	b := NewBatch(0)
	big := &Message{Op: OpWrite, Cur: make(types.Value, MaxValueSize+1)}
	if err := b.AppendMessage(big); err == nil {
		t.Fatal("AppendMessage accepted an oversized value")
	}
	if b.Count() != 0 || b.Size() != 0 {
		t.Fatalf("failed append left partial bytes: count=%d size=%d", b.Count(), b.Size())
	}
	// The buffer must still be usable after the rejected append.
	b.Append([]byte("ok"))
	if got := collectBatch(t, b.Bytes()); len(got) != 1 || string(got[0]) != "ok" {
		t.Fatalf("batch unusable after rejected append: %q", got)
	}
}

// TestBatchGrow: after Grow(n), appends totalling n bytes — header included —
// reuse the one buffer, and growing a non-empty batch keeps its contents.
func TestBatchGrow(t *testing.T) {
	payload := []byte("twelve bytes")
	const k = 8
	need := batchHeaderSize + k*(4+len(payload))
	var b Batch
	if allocs := testing.AllocsPerRun(20, func() {
		b.Grow(need)
		for i := 0; i < k; i++ {
			b.Append(payload)
		}
		if b.Size() != need {
			t.Fatalf("size %d, want %d", b.Size(), need)
		}
		b.Detach()
	}); allocs != 1 {
		t.Fatalf("%v allocations for a grown batch, want 1", allocs)
	}

	b.Append(payload)
	b.Grow(1 << 10)
	b.Append(payload)
	if got := collectBatch(t, b.Bytes()); len(got) != 2 || !bytes.Equal(got[0], payload) || !bytes.Equal(got[1], payload) {
		t.Fatalf("grown batch decoded to %q", got)
	}
}

// TestBatchGrowArena: a batch built in an arena stays in arenas as it outgrows
// them — contents kept, the outgrown arena released — and TakeArena hands the
// last one over with the batch's one reference.
func TestBatchGrowArena(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 300)
	var b Batch
	b.GrowArena(64)
	first := b.arena
	for i := 0; i < 8; i++ { // 8 × 304 bytes outgrow the first class several times
		b.Append(payload)
	}
	if first.Refs() != 0 {
		t.Errorf("the outgrown arena holds %d references, want 0", first.Refs())
	}
	env := b.Bytes()
	a := b.TakeArena()
	if a == nil || a == first || a.Refs() != 1 {
		t.Fatalf("TakeArena = %p (first %p), want a later arena with one reference", a, first)
	}
	if !viewWithin(a.Bytes()[:cap(a.Bytes())], env) {
		t.Fatal("the envelope does not live in the arena handed over")
	}
	if got := collectBatch(t, env); len(got) != 8 || !bytes.Equal(got[7], payload) {
		t.Fatalf("arena-built batch decoded to %d messages", len(got))
	}
	if b.Count() != 0 || b.TakeArena() != nil {
		t.Fatal("TakeArena left the batch holding its arena")
	}
	a.Release()

	// Growth is geometric past the pooled classes too: a 300 KB burst
	// envelope moves about eleven times (256 B → 512 KiB), each move costing at
	// most an Arena and its buffer, where growing by the appended bytes
	// would copy it a thousand times.
	burst := func() {
		var b Batch
		b.GrowArena(0)
		for i := 0; i < 1000; i++ {
			b.Append(payload)
		}
		b.TakeArena().Release()
	}
	if allocs := testing.AllocsPerRun(5, burst); allocs > 24 {
		t.Errorf("building a 300 KB envelope in arenas allocates %v times, want at most 24", allocs)
	}
}

// verify header invariants the tcpnet flusher relies on.
func TestBatchHeaderLayout(t *testing.T) {
	b := NewBatch(0)
	b.Append([]byte{0xAA})
	data := b.Bytes()
	if data[0] != batchMarker {
		t.Fatalf("marker byte = %#x", data[0])
	}
	if binary.LittleEndian.Uint32(data[1:]) != 1 {
		t.Fatalf("count field = %d, want 1", binary.LittleEndian.Uint32(data[1:]))
	}
	if binary.LittleEndian.Uint32(data[5:]) != 1 {
		t.Fatalf("entry length = %d, want 1", binary.LittleEndian.Uint32(data[5:]))
	}
}
