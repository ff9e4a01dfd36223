package wire

import (
	"sync"
	"sync/atomic"
)

// Arena-backed messages
// =====================
//
// A message buffer that crosses a goroutine boundary used to be allocated
// fresh so the codec's aliasing views (rule 2 of pool.go) could stay valid
// forever: the receiver abandoned the buffer to the garbage collector, and any
// message retaining a view simply pinned it. That is correct but costs one
// allocation per message plus a GC obligation proportional to throughput.
//
// An Arena makes the buffer itself recyclable, and three kinds of buffer are
// arenas: every inbound socket frame (the body is read into a pooled buffer),
// every request a client broadcasts and every acknowledgement a server's
// coalescer encodes, on every transport (the in-memory network delivers the
// arena with the message, so a broadcast's S servers share one buffer; the
// socket carriers copy the bytes out and release it at once). Every message
// view decoded from the buffer aliases it, and a REFERENCE COUNT tracks how
// many independent owners still need the bytes. Each delivered transport
// message holds one reference; a retention point (a pipelined client
// detaching an acknowledgement, a server adopting a written value into
// register state) takes another with Ref instead of cloning the bytes;
// Release drops one, and when the last reference drops the buffer returns to
// the pool for the next message.
//
// The discipline is deliberately fail-safe in one direction and loud in the
// other:
//
//   - A MISSING Release only leaks the arena to the garbage collector — the
//     views stay valid, exactly like the old copy-per-message behaviour, just
//     without the reuse. Consumers that never release (tests ranging over an
//     inbox, node decorators that forward a plain Send) therefore keep
//     working unchanged.
//   - A Release too many — which would hand live bytes to the next message
//     and corrupt every surviving view — PANICS immediately, in every build: a
//     refcount underflow is memory corruption in the making and must never be
//     ignored.
//   - A MISSING Ref — a view read after its last reference went — is caught
//     under the race detector: race builds fill a buffer with poisonByte on
//     its final Release (arena_race.go), so such a view reads garbage at once
//     instead of only when the pool happens to hand the buffer on.
type Arena struct {
	buf  []byte
	refs atomic.Int32
}

// poisonByte is what a race build writes over a released arena's buffer. It
// is neither a codec version nor the batch marker, so a payload read through
// a dangling view fails to decode.
const poisonByte = 0xEE

// maxArenaRetain bounds the buffers the arena pools keep. A frame larger than
// this (a burst batch close to the transports' frame caps) still gets an
// arena, but the oversized buffer is abandoned to the GC on final release
// instead of pinning pool memory forever.
const maxArenaRetain = 64 << 10

// minArenaClass is the smallest pooled buffer. Pooled buffers come in
// power-of-two classes from here up to maxArenaRetain, and a frame takes the
// smallest class that holds it: an arena retained past its frame (a value
// adopted into register state) pins at most max(2 × the frame, 256 B), never
// whatever larger frame its buffer carried before. The 256-byte floor is the
// price of pooling small frames: a ~60-byte request, ack or datagram adopted
// into register state pins a whole 256-byte buffer, where an exact-size
// buffer would cost an allocation on every small frame. The floor is paid per
// written register — in memory the S servers pin one shared request arena,
// over sockets each server its own frame — so it is kept just above the
// common small frame.
const minArenaClass = 1 << 8

// arenaPools recycles Arena structs together with their buffers, one pool per
// size class: arenaPools[i] holds buffers of exactly minArenaClass<<i bytes,
// 256 B to 64 KiB.
var arenaPools [9]sync.Pool

// arenaClass returns the index of the smallest class holding n bytes, or -1
// when n exceeds maxArenaRetain.
func arenaClass(n int) int {
	if n > maxArenaRetain {
		return -1
	}
	c := 0
	for minArenaClass<<c < n {
		c++
	}
	return c
}

// GetArena returns an arena whose Bytes are exactly n long, taking it from
// the pool of n's size class (so the buffer's capacity is that class, at least
// minArenaClass). The arena starts with ONE reference, owned by the caller.
func GetArena(n int) *Arena {
	var a *Arena
	if c := arenaClass(n); c < 0 {
		a = &Arena{buf: make([]byte, n)}
	} else if a, _ = arenaPools[c].Get().(*Arena); a == nil {
		a = &Arena{buf: make([]byte, minArenaClass<<c)}
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
	if poisonReleased {
		buf := a.buf[:cap(a.buf)]
		for i := range buf {
			buf[i] = poisonByte
		}
	}
	// An unpooled (oversized) buffer has no class and goes to the GC.
	if c := arenaClass(cap(a.buf)); c >= 0 {
		arenaPools[c].Put(a)
	}
}

// Refs reports the current reference count (for tests and diagnostics).
func (a *Arena) Refs() int32 { return a.refs.Load() }
