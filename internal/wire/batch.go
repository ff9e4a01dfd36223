package wire

import (
	"encoding/binary"
	"fmt"
)

// Batch envelope
// ==============
//
// A batch packs several encoded protocol messages into ONE transport payload
// (or one TCP frame), amortising the per-message transport costs — a frame's
// length-prefix parse and dispatch on TCP, a mailbox handoff on the in-memory
// network — across every message it carries. Batches are produced wherever a
// queue already coalesces traffic to one destination: the tcpnet per-peer
// flusher, the in-memory node pump, and the servers' per-run acknowledgement
// coalescer (transport.Coalescer).
//
// Layout (integers little-endian):
//
//	byte    batchMarker (0xB7 — never a valid codec version, so a batch can
//	        never be mistaken for a single message and vice versa)
//	uint32  message count
//	per message: uint32 length, message bytes
//
// Ownership follows the codec's rules (see pool.go): an encoded batch is
// immutable once handed to a transport, and the per-message views returned by
// ForEachInBatch ALIAS the batch buffer — consumers decode them with the same
// alias-don't-copy discipline as any delivered payload, and anything retained
// beyond handling one message must be cloned or pin the buffer. A batch is
// built either in a heap buffer abandoned to the transport on every flush
// (Detach), so views stay valid indefinitely, or in a pooled Arena
// (GrowArena) whose one reference travels with the envelope (TakeArena), so
// views live by rule 4.
const batchMarker byte = 0xB7

// batchHeaderSize is the envelope prefix: marker byte plus uint32 count.
const batchHeaderSize = 5

// MaxBatchMessages bounds the message count a decoder accepts, protecting
// against hostile counts (the per-message length prefixes bound the rest).
const MaxBatchMessages = 1 << 20

// BatchKind is the transport-level message kind used for batch payloads.
const BatchKind = "batch"

// BatchOverhead is the envelope's cost beyond the messages themselves for a
// batch of n messages: the header plus one length prefix per message.
func BatchOverhead(n int) int { return batchHeaderSize + 4*n }

// IsBatch reports whether the payload is a batch envelope.
func IsBatch(data []byte) bool {
	return len(data) >= batchHeaderSize && data[0] == batchMarker
}

// Batch is an append-only batch builder. The zero value is ready to use; a
// Batch can be Reset and reused, but the buffer of a batch whose Bytes have
// been handed to a transport must be ABANDONED, not reused (rule 1 of the
// codec's ownership discipline: encoded payloads are immutable and the
// receiver may alias them indefinitely) — Detach does exactly that, and
// TakeArena hands an arena-built batch's buffer on with its reference.
type Batch struct {
	// prefix reserves bytes at the start of the buffer ahead of the
	// envelope, so a caller that must prepend its own header (the tcpnet
	// frame header) can flush header+envelope as one contiguous slice.
	prefix int
	buf    []byte
	count  int
	// arena, when non-nil, is the pooled buffer buf lives in (GrowArena):
	// appends that outgrow it move the bytes to a larger arena instead of
	// letting append reallocate on the heap.
	arena *Arena
}

// NewBatch returns an empty batch reserving the given number of prefix bytes
// ahead of the envelope (0 for plain payload batches).
func NewBatch(prefix int) *Batch {
	return &Batch{prefix: prefix}
}

// Reset empties the batch, keeping the backing buffer for reuse.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.count = 0
}

// Detach empties the batch AND abandons the backing buffer, arena included.
// Call it after handing Bytes (or PrefixedBytes) to a transport: the receiver
// now owns the memory.
func (b *Batch) Detach() {
	b.buf = nil
	b.count = 0
	b.arena = nil
}

// Count returns the number of messages appended so far.
func (b *Batch) Count() int { return b.count }

// Size returns the encoded envelope size in bytes (excluding the prefix).
func (b *Batch) Size() int {
	if b.count == 0 {
		return 0
	}
	return len(b.buf) - b.prefix
}

// Grow makes room for n more bytes, so appends totalling n bytes — counting
// the envelope header (and prefix) the first append writes — do not
// reallocate. A builder that knows roughly how large the batch will get pays
// one allocation instead of append-doubling from zero.
func (b *Batch) Grow(n int) {
	if n <= cap(b.buf)-len(b.buf) {
		return
	}
	buf := make([]byte, len(b.buf), len(b.buf)+n)
	copy(buf, b.buf)
	b.buf = buf
}

// GrowArena is Grow into a pooled Arena: the batch's bytes move to an arena
// with room for n more (unless the arena they are in has it already), and from
// then on every append that would outgrow it moves them to one at least twice
// as large — geometric like append's growth, so a burst's envelope costs
// linear copying past the pooled classes too — the old arena going back to
// its pool. The batch holds the arena's one reference until TakeArena hands
// it on or Detach abandons it.
func (b *Batch) GrowArena(n int) {
	if b.arena != nil && n <= cap(b.buf)-len(b.buf) {
		return
	}
	size := len(b.buf) + n
	if b.arena != nil {
		size = max(size, 2*cap(b.buf))
	}
	a := GetArena(size)
	b.buf = append(a.Bytes()[:0], b.buf...)
	if b.arena != nil {
		b.arena.Release()
	}
	b.arena = a
}

// TakeArena hands over the arena the batch was built in (see GrowArena), with
// its reference, and empties the batch: Bytes and PrefixedBytes taken before
// alias that arena. It returns nil, leaving the batch alone, for a batch built
// on the heap.
func (b *Batch) TakeArena() *Arena {
	a := b.arena
	if a != nil {
		b.Detach()
	}
	return a
}

// reserve makes room for n more bytes in an arena-built batch, so the append
// that follows stays in an arena; a heap-built batch grows by append.
func (b *Batch) reserve(n int) {
	if b.arena != nil {
		b.GrowArena(n)
	}
}

// ensureHeader lazily writes the prefix placeholder and envelope header on
// the first append.
func (b *Batch) ensureHeader() {
	if len(b.buf) > 0 {
		return
	}
	b.reserve(b.prefix + batchHeaderSize)
	for i := 0; i < b.prefix; i++ {
		b.buf = append(b.buf, 0)
	}
	b.buf = append(b.buf, batchMarker, 0, 0, 0, 0)
}

// Append adds one encoded message payload to the batch (copying it).
func (b *Batch) Append(payload []byte) {
	b.ensureHeader()
	b.reserve(4 + len(payload))
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(payload)))
	b.buf = append(b.buf, payload...)
	b.count++
}

// AppendMessage append-encodes a message directly into the batch buffer,
// avoiding the intermediate payload slice Append would copy.
func (b *Batch) AppendMessage(m *Message) error {
	b.ensureHeader()
	b.reserve(4 + EncodedSize(m))
	lenAt := len(b.buf)
	b.buf = append(b.buf, 0, 0, 0, 0) // length, patched below
	out, err := AppendEncode(b.buf, m)
	if err != nil {
		b.buf = b.buf[:lenAt]
		return err
	}
	b.buf = out
	binary.LittleEndian.PutUint32(b.buf[lenAt:], uint32(len(b.buf)-lenAt-4))
	b.count++
	return nil
}

// Splice appends every message of an encoded batch envelope to this batch,
// flattening instead of nesting (batches never nest on the wire). The entry
// bytes are copied verbatim; data must be a well-formed envelope.
func (b *Batch) Splice(data []byte) error {
	count, err := BatchCount(data)
	if err != nil {
		return err
	}
	if count == 0 {
		return nil
	}
	b.ensureHeader()
	b.reserve(len(data) - batchHeaderSize)
	b.buf = append(b.buf, data[batchHeaderSize:]...)
	b.count += count
	return nil
}

// Bytes finalises and returns the encoded envelope (without the prefix),
// or nil if the batch is empty. The count field is patched in place, so
// calling Bytes repeatedly is cheap.
func (b *Batch) Bytes() []byte {
	if b.count == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(b.buf[b.prefix+1:], uint32(b.count))
	return b.buf[b.prefix:]
}

// PrefixedBytes finalises and returns prefix+envelope as one slice; the
// caller patches its own header into the first prefix bytes.
func (b *Batch) PrefixedBytes() []byte {
	if b.count == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(b.buf[b.prefix+1:], uint32(b.count))
	return b.buf
}

// BatchCount returns the message count of an encoded envelope after
// validating its header.
func BatchCount(data []byte) (int, error) {
	if len(data) < batchHeaderSize {
		return 0, fmt.Errorf("%w: truncated batch header", ErrMalformed)
	}
	if data[0] != batchMarker {
		return 0, fmt.Errorf("%w: not a batch", ErrMalformed)
	}
	count := binary.LittleEndian.Uint32(data[1:])
	if count > MaxBatchMessages {
		return 0, fmt.Errorf("%w: batch count %d too large", ErrMalformed, count)
	}
	// Every entry costs at least its 4-byte length prefix.
	if int(count) > (len(data)-batchHeaderSize)/4 {
		return 0, fmt.Errorf("%w: batch count %d exceeds payload", ErrMalformed, count)
	}
	return int(count), nil
}

// ForEachInBatch iterates the messages of an encoded envelope, calling fn
// with each message's payload. The payloads ALIAS data (nothing is copied);
// see the ownership note at the top of this file. It never panics on
// arbitrary input: counts and lengths are validated against the buffer, and a
// zero-message batch (which no sender produces but a fuzzer will) is a valid
// no-op. An error from fn stops the iteration and is returned.
func ForEachInBatch(data []byte, fn func(payload []byte) error) error {
	count, err := BatchCount(data)
	if err != nil {
		return err
	}
	off := batchHeaderSize
	for i := 0; i < count; i++ {
		if len(data)-off < 4 {
			return fmt.Errorf("%w: truncated batch entry %d", ErrMalformed, i)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || len(data)-off < n {
			return fmt.Errorf("%w: batch entry %d overruns buffer", ErrMalformed, i)
		}
		if err := fn(data[off : off+n : off+n]); err != nil {
			return err
		}
		off += n
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes after batch", ErrMalformed, len(data)-off)
	}
	return nil
}
