package wire

import (
	"sync"
	"sync/atomic"
)

// Arena-per-frame decoding
// ========================
//
// An inbound socket frame used to be copied into a freshly allocated payload
// so the codec's aliasing views (rule 2 of pool.go) could stay valid forever:
// the receiver abandoned the buffer to the garbage collector, and any message
// retaining a view simply pinned it. That is correct but costs one allocation
// per frame plus a GC obligation proportional to throughput.
//
// An Arena makes the frame buffer itself recyclable: the frame body is read
// into a pooled buffer, every message view decoded from the frame aliases it,
// and a REFERENCE COUNT tracks how many independent owners still need the
// bytes. Each delivered transport message holds one reference; a retention
// point (a pipelined client detaching an acknowledgement, a server adopting a
// written value into register state) takes another with Ref instead of cloning
// the bytes; Release drops one, and when the last reference drops the buffer
// returns to the pool for the next frame.
//
// The discipline is deliberately fail-safe in one direction and loud in the
// other:
//
//   - A MISSING Release only leaks the arena to the garbage collector — the
//     views stay valid, exactly like the old copy-per-frame behaviour, just
//     without the reuse. Consumers that never release (tests ranging over an
//     inbox) therefore keep working unchanged.
//   - A Release too many — which would hand live bytes to the next frame and
//     corrupt every surviving view — PANICS immediately, in every build: a
//     refcount underflow is memory corruption in the making and must never be
//     ignored.
type Arena struct {
	buf  []byte
	refs atomic.Int32
}

// maxArenaRetain bounds the buffers the arena pool keeps. A frame larger than
// this (a burst batch close to the transports' frame caps) still gets an
// arena, but the oversized buffer is abandoned to the GC on final release
// instead of pinning pool memory forever.
const maxArenaRetain = 64 << 10

// arenaPool recycles Arena structs together with their buffers.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena returns an arena whose buffer holds exactly n bytes, taking it
// from the pool (growing the buffer if needed). The arena starts with ONE
// reference, owned by the caller.
func GetArena(n int) *Arena {
	a := arenaPool.Get().(*Arena)
	if cap(a.buf) < n {
		a.buf = make([]byte, n)
	}
	a.buf = a.buf[:n]
	a.refs.Store(1)
	return a
}

// Bytes returns the arena's buffer. The caller may fill it (a socket read)
// before any views are decoded from it; once views exist the buffer is
// immutable (rule 1 of the codec's ownership discipline).
func (a *Arena) Bytes() []byte { return a.buf }

// Ref takes one additional reference. Call it at a retention point: when a
// message view decoded from this arena's frame (or the frame itself) gains an
// independent owner whose lifetime is not bounded by the current holder's.
func (a *Arena) Ref() { a.refs.Add(1) }

// Release drops one reference. The last release recycles the buffer into the
// pool. Releasing more often than Ref+GetArena granted references panics:
// an underflow means some view's bytes were handed to the next frame while
// still live, and silent corruption is strictly worse than a crash.
func (a *Arena) Release() {
	switch n := a.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("wire: arena released more often than referenced")
	}
	if cap(a.buf) > maxArenaRetain {
		a.buf = nil
	}
	arenaPool.Put(a)
}

// Refs reports the current reference count (for tests and diagnostics).
func (a *Arena) Refs() int32 { return a.refs.Load() }
