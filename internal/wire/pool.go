package wire

import "sync"

// Buffer-ownership rules for the pooled, zero-copy codec
// ======================================================
//
// The hot path of every protocol is: decode a request, mutate a little
// per-register state, encode an acknowledgement, send it. Servers execute
// that path on one goroutine per server (internal/transport.Executor), which
// is therefore every register's sole mutator — which is what makes rule 2's
// aliasing safe. The codec supports doing all of this without per-message
// allocations, under three rules:
//
//  1. Encoded payloads are immutable. Once a []byte has been handed to
//     transport.Node.Send, OWNERSHIP PASSES TO THE TRANSPORT (the in-memory
//     network delivers the same slice to the receiver; the same payload may
//     be broadcast to many receivers). Nobody — sender or receiver — may
//     mutate an encoded payload, ever. A payload handed over together with
//     its Arena (transport.ArenaSender, which a client's broadcast and a
//     server's ack coalescer use on every shipped node) passes the arena's
//     reference too: the in-memory network delivers both, so the buffer
//     returns to the pool once its last receiver releases it (rule 4), and a
//     socket carrier copies the bytes and releases at once.
//
//  2. Decoded views may alias. DecodeInto makes Cur, Prev and WriterSig
//     alias the payload. That is safe precisely because of rule 1. A decoded
//     message (and anything aliasing it) is valid until the handler returns.
//
//  3. Clone OR REF at retention points. Any decoded field that outlives
//     handling of the one message that carried it — a value adopted into
//     server state, a reader's remembered last-observed tag, a pipelined
//     client's detached acknowledgement — must either be cloned at the point
//     of retention, or keep aliasing while holding a REFERENCE on the frame's
//     Arena (see rule 4). Every server makes that choice in one place,
//     protoutil.Slot.Adopt, which pins the request's arena — on every
//     shipped transport a request carries one — and tells the caller to
//     clone when there is none. Transient uses (building an ack that is
//     encoded before the handler returns, evaluating a predicate) must NOT
//     clone.
//
//  4. Arena buffers are refcounted. A socket transport decodes each inbound
//     frame into a pooled, refcounted Arena (arena.go), a client encodes each
//     broadcast request into one and a server's ack coalescer every
//     acknowledgement (and ack envelope), which the in-memory transport
//     delivers with the message; every view decoded from such a payload
//     aliases that buffer. The delivered transport message carries one
//     reference; whoever drains the inbox releases it after handling, and
//     anything that retains an aliasing view past that point must take its
//     own Arena.Ref first and Release when done. A missing Release degrades
//     to rule-1 behaviour (the buffer leaks to the GC, views stay valid); a
//     double Release panics, because recycling a live buffer corrupts every
//     surviving view; a missing Ref reads poison under the race detector
//     (arena_race.go). Messages without an arena (a plain Send through a node
//     decorator, hand-built tests) follow rule 3's clone branch unchanged.
//
// GetMessage/PutMessage recycle Message structs for rule-2 scratch decoding;
// GetBuffer/PutBuffer recycle byte slices for encode/digest scratch that the
// caller fully consumes before returning. A payload passed to a plain Send
// cannot come from a pool (rule 1); one that must, goes in an Arena through
// an arena send, whose reference count tells the pool when it is free.

// messagePool recycles Message structs used as decode scratch.
var messagePool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage returns a zeroed scratch message from the pool (only the key
// memo survives recycling).
func GetMessage() *Message {
	return messagePool.Get().(*Message)
}

// PutMessage resets the message and returns it to the pool. The caller must
// not reference the message — or any field of it — afterwards. A message
// whose byte fields view long-lived state (an ack built over a server's
// stored value) needs no care first: Reset drops the views, and the seen
// set is a mask held by value.
func PutMessage(m *Message) {
	m.Reset()
	messagePool.Put(m)
}

// Reset zeroes every field of the message but the key memo, so a recycled
// message does not reallocate its key.
func (m *Message) Reset() {
	*m = Message{keyMemo: m.keyMemo}
}

// Fill overwrites the pooled message with v while keeping the key memo. An
// ack-building scratch that did a plain `*ack = wire.Message{...}` wiped the
// memo, so the NEXT decode into that pooled struct re-allocated the key string
// (see decodeMessage's memo comparison) — under a steady single-key workload
// that was one hidden allocation per handled message.
func (m *Message) Fill(v Message) {
	memo := m.keyMemo
	*m = v
	m.keyMemo = memo
}

// bufferPool recycles encode/digest scratch buffers (rule 1 forbids pooling
// payloads handed to a plain Send — arenas are the pool for those; this pool
// is for buffers the caller fully consumes before returning, such as
// signed-bytes digests).
var bufferPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// GetBuffer returns a length-0 scratch buffer from the pool. It traffics in
// *[]byte so the Get/Put cycle itself allocates nothing: write the grown
// slice back through the pointer before returning it with PutBuffer.
func GetBuffer() *[]byte {
	b := bufferPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a scratch buffer to the pool. The caller must not
// reference the buffer (or the slice it points to) afterwards.
func PutBuffer(b *[]byte) {
	bufferPool.Put(b)
}
