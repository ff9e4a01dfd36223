// Package tcpnet is the stream carrier of the framed socket core: it
// implements the transport.Node interface over TCP, so that the register
// protocols — which only ever talk to a Node — run unchanged over real
// sockets. Everything a socket node does that is not specific to TCP (the
// configuration, the frame body, the inbound path, the counters) is the
// embedded framed.Core; what is left here is the lazy dial, the per-peer
// batch writer and the eviction of connections to restarted peers.
//
// Each process owns one listening socket and dials its peers lazily; a frame
// is a uint32 length followed by the framed body (sender identity, message
// kind, opaque protocol payload). Delivery guarantees match the in-memory
// network as long as the underlying connections stay healthy: no duplication
// and no reordering per link; a broken connection is re-dialled on the next
// send and messages lost in between are simply "still in transit" from the
// protocol's point of view (the algorithms only ever wait for S−t of S
// replies, so this maps onto the paper's asynchronous model).
//
// Writes to one peer go through a dedicated per-peer writer: senders append
// messages into a pending wire.Batch under the peer's lock (which also makes
// concurrent Sends to the same peer safe — partial writes can never
// interleave on the stream) and a flusher goroutine swaps the batch out and
// writes it to the socket as ONE frame with the lock released. Under
// concurrent load many messages coalesce into one frame and one syscall; an
// idle connection is flushed immediately, so batching never adds latency; a
// slow socket never stalls senders (a stalled peer's queue is bounded,
// overflow is dropped and counted). The receiving side expands batch frames
// back into individual messages before they reach the inbox, so consumers
// are oblivious; framed.Stats counts both frames and messages, which is what
// makes the frames-per-operation amortisation measurable.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// dialTimeout bounds connection establishment to a peer, and writeTimeout a
// single buffered-frame flush: long enough for a loaded loopback or LAN peer,
// short enough that a dead one costs a sender's flusher seconds, not minutes.
const (
	dialTimeout  = 2 * time.Second
	writeTimeout = 2 * time.Second
)

// maxFrameSize bounds incoming frames to protect against corrupt peers.
const maxFrameSize = 4 << 20

// maxPayloadSize bounds a single outbound payload so that even a payload
// framed alone (solo batch entry + envelope + frame header) stays inside the
// receiver's maxFrameSize guard.
const maxPayloadSize = maxFrameSize - 64

// writeBufferSize is the per-peer coalescing buffer. Protocol messages are
// small (tens to hundreds of bytes), so 64 KiB batches hundreds of frames
// per syscall under load.
const writeBufferSize = 64 << 10

// Node is one process attached to the TCP network.
type Node struct {
	*framed.Core
	listener net.Listener

	mu      sync.Mutex
	peers   map[types.ProcessID]*peer
	inbound map[net.Conn]struct{}
	// inboundFrom counts the live inbound connections attributed to each
	// sender, and deadInbound remembers senders whose last inbound
	// connection has closed; together they distinguish a peer's FIRST
	// connection (normal: do not touch the cached outbound side) from a
	// reconnect or restart (evict the now-stale cached connection).
	// pendingRefresh holds the specific outbound peer whose eviction was
	// declined (busy, restart not yet proven) so the old connection's EOF
	// can finish the job. See noteInboundSender / noteInboundGone.
	inboundFrom    map[types.ProcessID]int
	deadInbound    map[types.ProcessID]bool
	pendingRefresh map[types.ProcessID]*peer

	wg sync.WaitGroup
}

var (
	_ transport.Node        = (*Node)(nil)
	_ transport.ArenaSender = (*Node)(nil)
)

// Listen starts a TCP node for the given process.
func Listen(cfg framed.Config) (*Node, error) {
	addr, err := cfg.BindAddr()
	if err != nil {
		return nil, err
	}
	listener, _, err := bind(addr)
	if err != nil {
		return nil, err
	}
	return newNode(cfg, listener), nil
}

// bind opens a listening socket and reports the address it landed on.
func bind(addr string) (net.Listener, string, error) {
	listener, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	return listener, listener.Addr().String(), nil
}

// newNode wraps a listener in a running Node.
func newNode(cfg framed.Config, listener net.Listener) *Node {
	n := &Node{
		Core:           framed.NewCore(cfg),
		listener:       listener,
		peers:          make(map[types.ProcessID]*peer),
		inbound:        make(map[net.Conn]struct{}),
		inboundFrom:    make(map[types.ProcessID]int),
		deadInbound:    make(map[types.ProcessID]bool),
		pendingRefresh: make(map[types.ProcessID]*peer),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n
}

// Addr returns the address the node is listening on (useful with ":0").
func (n *Node) Addr() string { return n.listener.Addr().String() }

// Send implements transport.Node. Messages to unknown or unreachable peers
// are dropped (and counted), matching the asynchronous model where they are
// simply never delivered. Send is safe for concurrent use: frames to the
// same peer are serialised whole, so concurrent senders can never interleave
// partial frames on the stream.
//
// The payload is fully copied into the peer's write buffer before Send
// returns; ownership is NOT retained (callers may reuse the slice), though
// the uniform transport.Node contract still passes ownership for the benefit
// of the in-memory transport.
func (n *Node) Send(to types.ProcessID, kind string, payload []byte) error {
	if n.Closed() {
		return framed.ErrClosed
	}
	if len(payload) > maxPayloadSize {
		n.CountSendDrop(1)
		return fmt.Errorf("tcpnet: payload too large (%d bytes)", len(payload))
	}
	p, err := n.peerTo(to)
	if err != nil {
		// Unreachable peer: the message is lost in transit. Not an error for
		// the sender in the asynchronous model.
		n.CountSendDrop(1)
		return nil
	}
	if err := p.writeFrame(kind, payload); err != nil {
		n.CountSendDrop(1)
		if !errors.Is(err, errPendingFull) {
			// The connection is broken; forget it so the next send re-dials.
			// A full write queue only drops this frame — the peer is healthy.
			n.dropPeer(to, p)
		}
	}
	return nil
}

// SendArena implements transport.ArenaSender: Send copies the payload into the
// peer's write buffer, so the arena goes back to its pool at once.
func (n *Node) SendArena(to types.ProcessID, kind string, payload []byte, arena *wire.Arena) error {
	err := n.Send(to, kind, payload)
	arena.Release()
	return err
}

// Close implements transport.Node.
func (n *Node) Close() error {
	if !n.Shut() {
		return nil
	}
	// Shut comes before the snapshot: peerTo and acceptLoop re-check the flag
	// under n.mu before registering a connection, so whatever they add is
	// either in this snapshot or never added.
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		conns = append(conns, c)
	}
	n.peers = map[types.ProcessID]*peer{}
	n.inbound = map[net.Conn]struct{}{}
	n.mu.Unlock()

	_ = n.listener.Close()
	for _, p := range peers {
		p.failPending(framed.ErrClosed, 0)
		p.close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	n.wg.Wait()
	n.Queue.Close()
	return nil
}

// peerTo returns a cached or freshly dialled peer connection.
func (n *Node) peerTo(to types.ProcessID) (*peer, error) {
	n.mu.Lock()
	p, ok := n.peers[to]
	n.mu.Unlock()
	if ok {
		return p, nil
	}
	addr, err := n.AddrOf(to)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.Closed() {
		n.mu.Unlock()
		_ = conn.Close()
		return nil, framed.ErrClosed
	}
	if existing, ok := n.peers[to]; ok {
		n.mu.Unlock()
		_ = conn.Close()
		return existing, nil
	}
	p = &peer{
		node: n,
		to:   to,
		conn: conn,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	n.peers[to] = p
	n.wg.Add(1)
	go p.flushLoop()
	n.mu.Unlock()
	return p, nil
}

// errPeerRefreshed is the sticky error set on an evicted idle peer so a Send
// racing the eviction fails fast (and is counted as a drop) instead of
// appending frames nobody will ever flush.
var errPeerRefreshed = errors.New("tcpnet: peer connection refreshed")

// noteInboundSender records that a NEW inbound connection's first frame came
// from the given sender, and decides whether the cached outbound connection
// to that sender is stale. A peer's first-ever inbound connection is normal
// operation (its reply dial) and must not touch the outbound side — evicting
// there would tear both directions down on every round-trip. But a SECOND
// connection while one is live (the peer re-dialled: its old outbound
// connection broke) or a connection arriving after the previous one died
// (the peer process restarted on its address book entry — writes to the
// stale socket can vanish into the kernel buffer without an error) means the
// cached connection points at a previous incarnation: evict it so replies
// ride a fresh dial. After a proven restart even a busy cached connection is
// evicted (its frames address a dead incarnation and surface as drops); on a
// concurrent re-dial the outbound side may still be healthy, so a busy
// connection is left in place but REMEMBERED — if the older inbound
// connection's EOF then proves the restart, noteInboundGone finishes the
// eviction. Every ordering of the restart race (old connection's EOF
// processed before or after the new connection's first frame, cached
// connection idle or busy) therefore converges on a fresh dial.
func (n *Node) noteInboundSender(from types.ProcessID) {
	n.mu.Lock()
	restarted := n.deadInbound[from]
	redialled := n.inboundFrom[from] > 0
	n.inboundFrom[from]++
	delete(n.deadInbound, from)
	n.mu.Unlock()
	if !restarted && !redialled {
		return
	}
	declined := n.refreshPeer(from, restarted, nil)
	if declined == nil {
		return
	}
	// Remember the declined eviction only while the older connection is
	// still counted live; if its EOF raced past between the count snapshot
	// above and here, nobody is left to finish the deferred eviction — but
	// that EOF also proves the restart, so evict right now instead.
	n.mu.Lock()
	olderStillLive := n.inboundFrom[from] > 1
	if olderStillLive {
		n.pendingRefresh[from] = declined
	}
	n.mu.Unlock()
	if !olderStillLive {
		n.refreshPeer(from, true, declined)
	}
}

// noteInboundGone records that an inbound connection attributed to the given
// sender has closed. If a newer connection from the sender is still live and
// an eviction was declined while this one lived, the close proves the
// declined connection addressed a dead incarnation: evict it now, by
// identity, so a replacement dialled in the meantime is left untouched.
func (n *Node) noteInboundGone(from types.ProcessID) {
	n.mu.Lock()
	if n.inboundFrom[from] > 0 {
		n.inboundFrom[from]--
	}
	var deferred *peer
	if n.inboundFrom[from] == 0 {
		delete(n.inboundFrom, from)
		// No live connection remains: the next one takes the restart path
		// directly, no deferred eviction needed.
		delete(n.pendingRefresh, from)
		if !n.Closed() {
			n.deadInbound[from] = true
		}
	} else {
		deferred = n.pendingRefresh[from]
		delete(n.pendingRefresh, from)
	}
	n.mu.Unlock()
	if deferred != nil {
		n.refreshPeer(from, true, deferred)
	}
}

// refreshPeer discards the cached outbound connection to a peer. Unless
// force is set, only a completely idle connection is evicted: an idle
// connection can be dropped without losing frames (the next send re-dials),
// while a busy one may still be healthy — if it is genuinely broken its
// flush will fail and dropPeer will clear it. With force (the peer provably
// restarted) a busy connection is evicted too, its queued frames counted as
// send drops — they were addressed to a dead incarnation and can never
// arrive. When only is non-nil the eviction applies to that specific peer
// value alone, so a deferred eviction cannot hit a replacement connection
// dialled in the meantime. The check atomically marks the peer dead under
// its own mutex, so a Send racing the eviction fails fast on the sticky
// error (and counts a drop) rather than enqueueing a frame the departing
// flusher would silently abandon.
//
// It returns the still-live peer whose eviction was declined (nil
// otherwise), for the caller to remember for a deferred retry.
func (n *Node) refreshPeer(from types.ProcessID, force bool, only *peer) *peer {
	n.mu.Lock()
	p, ok := n.peers[from]
	n.mu.Unlock()
	if !ok || (only != nil && p != only) {
		return nil
	}
	p.mu.Lock()
	evict := p.err == nil && (force || (p.pendingMsgs == 0 && p.inFlightBytes == 0))
	if evict {
		p.err = errPeerRefreshed
	}
	declined := !evict && p.err == nil
	p.mu.Unlock()
	if !evict {
		if declined {
			return p
		}
		return nil
	}
	n.mu.Lock()
	if n.peers[from] == p {
		delete(n.peers, from)
	}
	n.mu.Unlock()
	// Surface any frames still queued to the dead incarnation as drops
	// (a no-op in the idle case).
	p.failPending(errPeerRefreshed, 0)
	p.close()
	return nil
}

// dropPeer forgets a broken peer connection, counting any frames still
// queued on it as send drops.
func (n *Node) dropPeer(to types.ProcessID, p *peer) {
	n.mu.Lock()
	if n.peers[to] == p {
		delete(n.peers, to)
	}
	n.mu.Unlock()
	p.failPending(framed.ErrClosed, 0)
	p.close()
}

// maxPendingBytes bounds a peer's unflushed write queue. Senders never block
// on the socket, so a stalled peer would otherwise buffer without bound; once
// the cap is hit, new messages are dropped whole (and counted) — "still in
// transit" from the protocols' point of view, exactly like a lossy link.
const maxPendingBytes = 8 << 20

// errPendingFull reports a message dropped because the peer's write queue is
// at its cap. The peer itself is healthy; only this message is lost.
var errPendingFull = errors.New("tcpnet: peer write queue full")

// batchFrameHeaderSize is the byte length of a batch frame's header: the
// uint32 body length plus the framed body header for kind "batch". Each
// pending wire.Batch reserves exactly this prefix so a flush writes
// header+envelope as one contiguous slice with no copy.
const batchFrameHeaderSize = 4 + framed.HeaderOverhead + len(wire.BatchKind)

// maxBatchPayload caps one batch frame's envelope: a burst larger than this
// leaves as several frames, so a coalesced frame always stays comfortably
// inside the receiver's maxFrameSize guard no matter how much queued while
// the socket was busy.
const maxBatchPayload = 1 << 20

// peer is one outbound connection with its coalescing writer.
type peer struct {
	node *Node
	to   types.ProcessID
	conn net.Conn

	mu            sync.Mutex
	queue         []*wire.Batch // frames-to-be awaiting the flusher, in order
	pendingBytes  int           // total encoded bytes across queue
	pendingMsgs   int           // total messages across queue (drop accounting)
	inFlightBytes int           // size of the buffer the flusher is writing
	err           error         // sticky write error; once set the peer is dead
	// free recycles flushed batches (the socket consumed their bytes) as new
	// tails. It keeps at most queueHigh of them: the most batches this peer
	// has had queued and in flight at once, which is all its load has ever
	// needed, so a steady load allocates no batch and a quiet peer pins few.
	free      []*wire.Batch
	queueHigh int

	kick      chan struct{} // capacity 1: "bytes are buffered, please flush"
	done      chan struct{}
	closeOnce sync.Once
}

// failPending marks the peer dead (if err is non-nil) and counts every
// message still queued — and, via extraMsgs, any messages lost inside a
// failed socket write — as send drops, so messages accepted into the queue
// but never delivered stay visible to operators.
func (p *peer) failPending(err error, extraMsgs int) {
	p.mu.Lock()
	if err != nil && p.err == nil {
		p.err = err
	}
	dropped := p.pendingMsgs + extraMsgs
	p.pendingMsgs = 0
	p.pendingBytes = 0
	p.queue = nil
	p.mu.Unlock()
	if dropped > 0 {
		p.node.CountSendDrop(dropped)
	}
}

// writeFrame appends one message to the peer's tail batch and wakes the
// flusher. All messages batched together leave as ONE frame whose payload is
// a wire.Batch envelope (the receiver expands it); a payload that is already
// an envelope — a server's coalesced acknowledgement run — is spliced flat
// rather than nested, and a batch that would outgrow maxBatchPayload is
// sealed so the burst continues in the next frame. Appending under p.mu is
// what guarantees messages from concurrent senders never interleave; the
// lock is never held across a syscall (see flushLoop), so a slow socket
// never stalls senders.
func (p *peer) writeFrame(kind string, payload []byte) error {
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	// The cap covers queued and in-flight bytes plus this message (with its
	// 4-byte entry prefix), so a stalled peer holds at most maxPendingBytes —
	// not double.
	if p.pendingBytes+p.inFlightBytes+4+len(payload) > maxPendingBytes {
		p.mu.Unlock()
		return errPendingFull
	}
	// Validate envelope payloads BEFORE touching the queue: a failed Splice
	// after appending a fresh tail would leave an empty batch for the
	// flusher.
	spliceable := wire.IsBatch(payload)
	if spliceable {
		if _, err := wire.BatchCount(payload); err != nil {
			p.mu.Unlock()
			return err
		}
	}
	var tail *wire.Batch
	if n := len(p.queue); n > 0 && p.queue[n-1].Size()+4+len(payload) <= maxBatchPayload {
		tail = p.queue[n-1]
	} else {
		if n := len(p.free); n > 0 {
			tail = p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
		} else {
			tail = wire.NewBatch(batchFrameHeaderSize)
		}
		p.queue = append(p.queue, tail)
		outstanding := len(p.queue)
		if p.inFlightBytes > 0 {
			outstanding++
		}
		p.queueHigh = max(p.queueHigh, outstanding)
	}
	sizeBefore, countBefore := tail.Size(), tail.Count()
	if spliceable {
		if err := tail.Splice(payload); err != nil {
			p.mu.Unlock()
			return err
		}
	} else {
		tail.Append(payload)
	}
	p.pendingBytes += tail.Size() - sizeBefore
	p.pendingMsgs += tail.Count() - countBefore
	p.mu.Unlock()
	// Wake the flusher; if a kick is already pending it will cover these
	// bytes too.
	select {
	case p.kick <- struct{}{}:
	default:
	}
	return nil
}

// frameBytes patches the frame header into the batch's reserved prefix and
// returns the complete frame (header + envelope) ready for one Write call.
func frameBytes(b *wire.Batch, from types.ProcessID) []byte {
	buf := b.PrefixedBytes()
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	// Appending to the empty slice at offset 4 writes the body header in
	// place, over the rest of the reserved prefix.
	framed.AppendHeader(buf[4:4], from, wire.BatchKind, len(buf)-batchFrameHeaderSize)
	return buf
}

// flushLoop pushes buffered messages to the socket. Each wakeup swaps the
// pending batch out under the lock and writes it as ONE frame with the lock
// RELEASED — that is the batching: while the write syscall is in flight,
// concurrent senders keep appending messages to the fresh batch, and the
// next wakeup writes them all in the next frame. An idle connection flushes
// immediately after its lone message, so coalescing never delays delivery.
func (p *peer) flushLoop() {
	defer p.node.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case <-p.kick:
			for {
				p.mu.Lock()
				if p.err != nil || len(p.queue) == 0 {
					broken := p.err != nil
					p.mu.Unlock()
					if broken {
						p.node.dropPeer(p.to, p)
						return
					}
					break
				}
				// Shift rather than reslice, so the queue keeps its backing
				// array instead of growing a new one behind the flusher.
				batch := p.queue[0]
				n := copy(p.queue, p.queue[1:])
				p.queue[n] = nil
				p.queue = p.queue[:n]
				if batch.Count() == 0 {
					// Defensive: an empty batch has no frame to write (and
					// PrefixedBytes is nil); nothing can enqueue one today,
					// but a panic in the flusher kills the peer.
					continue
				}
				msgs := batch.Count()
				buf := frameBytes(batch, p.node.ID())
				p.pendingBytes -= batch.Size()
				p.pendingMsgs -= msgs
				p.inFlightBytes = len(buf)
				p.mu.Unlock()

				_ = p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				_, werr := p.conn.Write(buf)

				p.mu.Lock()
				p.inFlightBytes = 0
				// Keep the batch for reuse — the socket consumed its bytes, so
				// unlike payloads handed to a receiver it is safely recyclable —
				// but let a burst-sized high-water buffer go instead of pinning
				// it for the peer's lifetime.
				if len(p.free) < p.queueHigh && cap(buf) <= writeBufferSize {
					batch.Reset()
					p.free = append(p.free, batch)
				}
				if werr != nil {
					p.err = werr
				}
				broken := p.err != nil
				p.mu.Unlock()
				if broken {
					// The failed write's messages (delivery unknown, assume
					// lost) plus everything still queued are gone; count
					// them before tearing the peer down.
					p.failPending(werr, msgs)
					p.node.dropPeer(p.to, p)
					return
				}
			}
		}
	}
}

// close tears the peer down: the flusher exits, the socket closes. Safe to
// call multiple times and concurrently with writeFrame (which fails fast on
// the closed socket's sticky error).
func (p *peer) close() {
	p.closeOnce.Do(func() {
		close(p.done)
		_ = p.conn.Close()
	})
}

// acceptLoop accepts inbound connections and spawns a reader per connection.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.Closed() {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection into the node's queue.
// The connection is wrapped in a bufio.Reader and each frame body is read into
// a pooled refcounted arena (wire.GetArena): delivered payloads ALIAS the arena
// buffer instead of being freshly allocated per frame, and the arena is
// recycled once every consumer has released its reference (the codec's
// ownership rule 4).
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, writeBufferSize)
	var sender types.ProcessID
	announced := false
	defer func() {
		if announced {
			n.noteInboundGone(sender)
		}
	}()
	for {
		from, kind, payload, arena, err := readFrameArena(br)
		if err != nil {
			return
		}
		n.CountFrame()
		if !announced {
			// The first frame names the connection's sender; record it so a
			// reconnect or restart of that peer can evict our stale cached
			// outbound connection to its previous incarnation.
			announced = true
			sender = from
			n.noteInboundSender(from)
		}
		if !n.Deliver(from, kind, payload, arena) {
			return
		}
	}
}

// readFrameArena reads one frame — a uint32 length, then that many bytes of
// framed body — with the body in a pooled refcounted arena. The returned
// payload ALIASES the arena buffer; the caller owns the arena's initial
// reference (released internally on every error path), so a frame costs arena
// recycling instead of a payload copy.
func readFrameArena(r io.Reader) (types.ProcessID, string, []byte, *wire.Arena, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return types.ProcessID{}, "", nil, nil, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total > maxFrameSize {
		return types.ProcessID{}, "", nil, nil, fmt.Errorf("tcpnet: frame too large (%d bytes)", total)
	}
	arena := wire.GetArena(int(total))
	body := arena.Bytes()
	if _, err := io.ReadFull(r, body); err != nil {
		arena.Release()
		return types.ProcessID{}, "", nil, nil, err
	}
	from, kind, payload, err := framed.ParseBody(body)
	if err != nil {
		arena.Release()
		return types.ProcessID{}, "", nil, nil, err
	}
	return from, kind, payload, arena, nil
}

// LocalCluster starts one TCP node per identity, all listening on loopback
// with ephemeral ports, and returns them along with the shared address book.
// It is a convenience for tests and for the tcpcluster example.
func LocalCluster(ids []types.ProcessID) (map[types.ProcessID]*Node, transport.AddressBook, error) {
	return framed.LocalCluster(ids, bind, newNode)
}
