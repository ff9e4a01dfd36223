package tcpnet

import (
	"bytes"
	"testing"

	"fastread/internal/types"
)

// FuzzReadFrame asserts that readFrameArena — the frame decoder the receive
// loop runs — never panics on arbitrary stream bytes, that frames produced by
// the reference encoder round-trip exactly, and that its arena contract holds
// (the body inside the length prefix is framed.FuzzFrameBody's business):
// an error hands out neither an arena nor a view (the arena was released
// internally; a release too many would panic, in every build), success hands
// out exactly one reference and a payload that is a view inside that arena.
func FuzzReadFrame(f *testing.F) {
	// Seed with well-formed frames of every shape the transport produces...
	for _, seed := range []struct {
		from    types.ProcessID
		kind    string
		payload []byte
	}{
		{types.Writer(), "write", []byte("payload")},
		{types.Reader(3), "readack", nil},
		{types.Server(12), "gossip", bytes.Repeat([]byte{0xAB}, 300)},
		{types.Reader(1), "", []byte{}},
	} {
		frame := encodeFrame(seed.from, seed.kind, seed.payload)
		f.Add(frame)
		// ...and with two frames back to back, so the fuzzer explores
		// stream-resynchronisation bugs.
		f.Add(append(append([]byte(nil), frame...), frame...))
	}
	// Hostile prefixes: oversized length claim, truncated header.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 3, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		from, kind, payload, arena, err := readFrameArena(bytes.NewReader(data))
		if err != nil {
			if arena != nil || payload != nil {
				t.Fatalf("error %v still handed out arena=%v payload=%v", err, arena, payload)
			}
			return
		}
		if arena.Refs() != 1 {
			t.Fatalf("decoded frame holds %d arena references, want 1", arena.Refs())
		}
		if body := arena.Bytes(); len(payload) > 0 && &payload[len(payload)-1] != &body[len(body)-1] {
			t.Fatal("payload is not a view of the arena's frame body")
		}

		// Whatever decoded must re-encode to the exact bytes consumed.
		reencoded := encodeFrame(from, kind, payload)
		if !bytes.Equal(reencoded, data[:len(reencoded)]) {
			t.Fatal("re-encoded frame differs from consumed bytes")
		}
		arena.Release()
	})
}
