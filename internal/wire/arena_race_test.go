//go:build race

package wire

import "testing"

// TestArenaPoisonsOnFinalRelease: under the race detector a view kept past its
// arena's last Release reads poison, whether the buffer is pooled or, oversized,
// left to the collector — and a payload read that way no longer decodes.
func TestArenaPoisonsOnFinalRelease(t *testing.T) {
	for _, n := range []int{64, maxArenaRetain + 1} {
		a := GetArena(n)
		payload, err := AppendEncode(a.Bytes()[:0], &Message{Op: OpReadAck, Key: "k", TS: 7, RCounter: 3})
		if err != nil {
			t.Fatal(err)
		}
		a.Ref()
		a.Release()
		if _, err := Decode(payload); err != nil {
			t.Fatalf("n=%d: a view still referenced stopped decoding: %v", n, err)
		}
		a.Release()
		for i, b := range payload {
			if b != poisonByte {
				t.Fatalf("n=%d: byte %d of a released view is %#x, want poison %#x", n, i, b, poisonByte)
			}
		}
		if _, err := Decode(payload); err == nil {
			t.Fatalf("n=%d: a released view still decodes", n)
		}
	}
}
